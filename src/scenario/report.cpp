#include "scenario/report.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace vc2m::scenario {

namespace {

using obs::json::Value;
using Kind = Value::Kind;

void write_string_array(std::ostream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << "\"" << obs::json::escape(v[i]) << "\"";
  os << "]";
}

void write_record(std::ostream& os, const ScenarioRecord& r) {
  os << "  {\"name\": \"" << obs::json::escape(r.name) << "\",\n"
     << "   \"file\": \"" << obs::json::escape(r.file) << "\",\n"
     << "   \"scenario_hash\": \"" << obs::json::escape(r.scenario_hash)
     << "\",\n"
     << "   \"verdict\": \""
     << (r.schedulable ? "schedulable" : "unschedulable") << "\",\n"
     << "   \"digest\": \"" << obs::json::escape(r.digest) << "\",\n"
     << "   \"passed\": " << (r.passed ? "true" : "false") << ",\n"
     << "   \"failures\": ";
  write_string_array(os, r.failures);
  os << ",\n   \"rejection_constraints\": ";
  write_string_array(os, r.rejection_constraints);
  os << ",\n   \"simulated\": " << (r.simulated ? "true" : "false");
  if (r.simulated) {
    os << ",\n   \"metrics\": {\"jobs_released\": " << r.jobs_released
       << ", \"jobs_completed\": " << r.jobs_completed
       << ", \"deadline_misses\": " << r.deadline_misses
       << ", \"faults_injected\": " << r.faults_injected
       << ", \"jobs_killed\": " << r.jobs_killed
       << ", \"jobs_deferred\": " << r.jobs_deferred
       << ", \"trace_events\": " << r.trace_events
       << ", \"trace_violations\": " << r.trace_violations << "}";
  }
  os << "}";
}

ScenarioRecord parse_record(obs::json::ObjectReader r) {
  ScenarioRecord rec;
  rec.name = r.require_string("name");
  rec.file = r.require_string("file");
  rec.scenario_hash = r.require_string("scenario_hash");
  const std::string verdict = r.require_string("verdict");
  if (verdict != "schedulable" && verdict != "unschedulable")
    r.fail_at("verdict", "bad verdict '" + verdict + "'");
  rec.schedulable = verdict == "schedulable";
  rec.digest = r.require_string("digest");
  rec.passed = r.require_bool("passed");
  rec.failures = r.require_strings("failures");
  rec.rejection_constraints = r.require_strings("rejection_constraints");
  rec.simulated = r.require_bool("simulated");
  if (rec.simulated) {
    auto m = r.require_object("metrics");
    rec.jobs_released = m.require_int<std::uint64_t>("jobs_released");
    rec.jobs_completed = m.require_int<std::uint64_t>("jobs_completed");
    rec.deadline_misses = m.require_int<std::uint64_t>("deadline_misses");
    rec.faults_injected = m.require_int<std::uint64_t>("faults_injected");
    rec.jobs_killed = m.require_int<std::uint64_t>("jobs_killed");
    rec.jobs_deferred = m.require_int<std::uint64_t>("jobs_deferred");
    rec.trace_events = m.require_int<std::uint64_t>("trace_events");
    rec.trace_violations = m.require_int<std::uint64_t>("trace_violations");
  }
  return rec;
}

}  // namespace

const ScenarioRecord* ScenarioReport::find(const std::string& name) const {
  for (const auto& r : records)
    if (r.name == name) return &r;
  return nullptr;
}

void write_scenario_report(std::ostream& os, const ScenarioReport& r) {
  os << "{\n";
  os << "\"schema\": \"" << obs::json::escape(r.schema) << "\",\n";
  os << "\"git_rev\": \"" << obs::json::escape(r.git_rev) << "\",\n";
  os << "\"corpus\": \"" << obs::json::escape(r.corpus) << "\",\n";
  os << "\"shard\": {\"index\": " << r.shard_index
     << ", \"count\": " << r.shard_count << "},\n";
  // Written only when set so complete reports stay byte-identical to
  // reports from builds that predate interruption support.
  if (r.interrupted) os << "\"interrupted\": true,\n";
  os << "\"total\": " << r.records.size() << ",\n";
  os << "\"passed\": " << r.passed() << ",\n";
  os << "\"failed\": " << r.failed() << ",\n";
  os << "\"scenarios\": [";
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_record(os, r.records[i]);
  }
  os << (r.records.empty() ? "" : "\n") << "]\n}\n";
}

void write_scenario_report_file(const std::string& path,
                                const ScenarioReport& r) {
  auto f = util::open_output_file(path, "scenario report");
  write_scenario_report(f, r);
  util::close_output_file(f, path, "scenario report");
}

ScenarioReport read_scenario_report(std::istream& is, const std::string& what,
                                    std::vector<std::string>* notes) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const Value root = obs::json::parse(buf.str(), what);
  obs::json::ObjectReader top(root, what, "report");
  ScenarioReport r;
  r.schema = top.require_string("schema");
  if (r.schema != kReportSchema)
    top.fail_at("schema", "unsupported schema '" + r.schema + "'");
  r.git_rev = top.require_string("git_rev");
  r.corpus = top.require_string("corpus");
  auto shard = top.require_object("shard");
  r.shard_count = shard.require_int<int>("count", 1);
  r.shard_index = shard.require_int<int>("index", 0, r.shard_count - 1);
  r.interrupted = top.get_bool("interrupted", false);
  for (const Value& v : top.require("scenarios", Kind::kArray).array) {
    ScenarioRecord rec = parse_record(top.child(v, "scenario record"));
    if (r.find(rec.name))
      top.fail("duplicate scenario '" + rec.name + "'", v.offset);
    r.records.push_back(std::move(rec));
  }
  const auto check_count = [&](const char* key, std::size_t want) {
    if (top.require_int<std::uint64_t>(key) != want)
      top.fail_at(key, std::string("'") + key + "' disagrees with the records");
  };
  check_count("total", r.records.size());
  check_count("passed", r.passed());
  check_count("failed", r.failed());
  top.finish(notes);
  return r;
}

ScenarioReport read_scenario_report_file(const std::string& path,
                                         std::vector<std::string>* notes) {
  std::ifstream f(path);
  if (!f.good())
    throw util::Error("cannot open scenario report '" + path + "'");
  return read_scenario_report(f, path, notes);
}

ScenarioReport merge_scenario_reports(const std::vector<ScenarioReport>& in) {
  VC2M_CHECK_MSG(!in.empty(), "merge: no reports given");
  ScenarioReport out;
  out.git_rev = in.front().git_rev;
  out.corpus = in.front().corpus;
  for (const auto& r : in) {
    VC2M_CHECK_MSG(r.corpus == out.corpus,
                   "merge: corpus mismatch ('" << r.corpus << "' vs '"
                                               << out.corpus << "')");
    VC2M_CHECK_MSG(r.git_rev == out.git_rev,
                   "merge: git_rev mismatch ('" << r.git_rev << "' vs '"
                                                << out.git_rev << "')");
    out.interrupted = out.interrupted || r.interrupted;
    for (const auto& rec : r.records) {
      VC2M_CHECK_MSG(out.find(rec.name) == nullptr,
                     "merge: scenario '" << rec.name
                                         << "' appears in two shards");
      out.records.push_back(rec);
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const ScenarioRecord& a, const ScenarioRecord& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace vc2m::scenario
