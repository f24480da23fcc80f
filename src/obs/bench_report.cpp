#include "obs/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace vc2m::obs {

namespace {

void write_phase(std::ostream& os, const PhaseStats& p, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\"name\": \"" << json::escape(p.name)
     << "\", \"count\": " << p.count
     << ", \"total_sec\": " << json::number(p.total_sec)
     << ", \"self_sec\": " << json::number(p.self_sec) << ", \"children\": [";
  for (std::size_t i = 0; i < p.children.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_phase(os, p.children[i], indent + 2);
  }
  if (!p.children.empty()) os << "\n" << pad;
  os << "]}";
}

PhaseStats parse_phase(json::ObjectReader r) {
  PhaseStats p;
  p.name = r.require_string("name");
  p.count = r.require_int<std::uint64_t>("count");
  p.total_sec = r.require_number("total_sec");
  p.self_sec = r.require_number("self_sec");
  if (const json::Value* kids = r.claim("children", json::Value::Kind::kArray))
    for (const auto& c : kids->array)
      p.children.push_back(parse_phase(r.child(c, "phase")));
  return p;
}

/// Counters where growth means the run did *better* (more reuse, more
/// admissions) or that measure solution quality rather than effort — the
/// `exempt` column of VC2M_ALLOC_COUNTERS. The diff gate must not flag them
/// as regressions.
bool counter_exempt(const std::string& name) {
  const auto ends_with = [&](std::string_view suf) {
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
#define VC2M_EXEMPT(type, field, label, exempt) \
  if (exempt && ends_with(#field)) return true;
  VC2M_ALLOC_COUNTERS(VC2M_EXEMPT)
#undef VC2M_EXEMPT
  return false;
}

}  // namespace

HistogramSummary HistogramSummary::of(const util::LogHistogram& h) {
  HistogramSummary out;
  out.count = h.count();
  if (h.empty()) return out;
  out.mean = h.mean();
  out.min = h.min();
  out.max = h.max();
  out.p50 = h.quantile(0.50);
  out.p90 = h.quantile(0.90);
  out.p95 = h.quantile(0.95);
  out.p99 = h.quantile(0.99);
  return out;
}

HistogramSummary HistogramSummary::of(const util::SampleStats& s) {
  HistogramSummary out;
  out.count = s.count();
  if (s.empty()) return out;
  out.mean = s.mean();
  out.min = s.min();
  out.max = s.max();
  out.p50 = s.p(0.50);
  out.p90 = s.p(0.90);
  out.p95 = s.p(0.95);
  out.p99 = s.p(0.99);
  return out;
}

void write_histogram_summary(std::ostream& os, const HistogramSummary& h) {
  os << "{\"count\": " << h.count << ", \"mean\": " << json::number(h.mean)
     << ", \"min\": " << json::number(h.min)
     << ", \"max\": " << json::number(h.max)
     << ", \"p50\": " << json::number(h.p50)
     << ", \"p90\": " << json::number(h.p90)
     << ", \"p95\": " << json::number(h.p95)
     << ", \"p99\": " << json::number(h.p99) << "}";
}

HistogramSummary read_histogram_summary(json::ObjectReader r) {
  HistogramSummary h;
  h.count = r.require_int<std::uint64_t>("count");
  h.mean = r.require_number("mean");
  h.min = r.require_number("min");
  h.max = r.require_number("max");
  h.p50 = r.require_number("p50");
  h.p90 = r.require_number("p90");
  h.p95 = r.require_number("p95");
  h.p99 = r.require_number("p99");
  return h;
}

PoolSummary PoolSummary::of(const util::PoolTelemetry& t) {
  PoolSummary out;
  out.workers.reserve(t.workers.size());
  for (const auto& w : t.workers)
    out.workers.push_back({w.executed, w.steals,
                           static_cast<double>(w.idle_ns) * 1e-9,
                           static_cast<std::uint64_t>(w.max_queue)});
  return out;
}

std::string build_git_rev() {
#ifdef VC2M_GIT_REV
  return VC2M_GIT_REV;
#else
  return "unknown";
#endif
}

void set_counters(BenchReport& r, const util::AllocCounters& c) {
#define VC2M_SET_COUNTER(type, name, label, exempt) \
  r.counters[#name] = static_cast<double>(c.name);
  VC2M_ALLOC_COUNTERS(VC2M_SET_COUNTER)
#undef VC2M_SET_COUNTER
}

void write_bench_report(std::ostream& os, const BenchReport& r) {
  os << "{\n";
  os << "\"schema\": \"" << json::escape(r.schema) << "\",\n";
  os << "\"name\": \"" << json::escape(r.name) << "\",\n";
  os << "\"git_rev\": \"" << json::escape(r.git_rev) << "\",\n";

  os << "\"config\": {";
  bool first = true;
  for (const auto& [k, v] : r.config) {
    os << (first ? "\n" : ",\n") << "  \"" << json::escape(k) << "\": \""
       << json::escape(v) << "\"";
    first = false;
  }
  os << (first ? "" : "\n") << "},\n";

  os << "\"counters\": {";
  first = true;
  for (const auto& [k, v] : r.counters) {
    os << (first ? "\n" : ",\n") << "  \"" << json::escape(k)
       << "\": " << json::number(v);
    first = false;
  }
  os << (first ? "" : "\n") << "},\n";

  os << "\"phases\": [";
  for (std::size_t i = 0; i < r.phases.children.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_phase(os, r.phases.children[i], 2);
  }
  os << (r.phases.children.empty() ? "" : "\n") << "],\n";

  os << "\"histograms\": {";
  first = true;
  for (const auto& [k, h] : r.histograms) {
    os << (first ? "\n" : ",\n") << "  \"" << json::escape(k) << "\": ";
    write_histogram_summary(os, h);
    first = false;
  }
  os << (first ? "" : "\n") << "},\n";

  os << "\"pool\": {\"workers\": [";
  for (std::size_t i = 0; i < r.pool.workers.size(); ++i) {
    const auto& w = r.pool.workers[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"executed\": " << w.executed
       << ", \"steals\": " << w.steals
       << ", \"idle_sec\": " << json::number(w.idle_sec)
       << ", \"max_queue\": " << w.max_queue << "}";
  }
  os << (r.pool.workers.empty() ? "" : "\n") << "]}\n";
  os << "}\n";
}

void write_bench_report_file(const std::string& path, const BenchReport& r) {
  auto f = util::open_output_file(path, "bench report");
  write_bench_report(f, r);
  util::close_output_file(f, path, "bench report");
}

BenchReport read_bench_report(std::istream& is) {
  using Kind = json::Value::Kind;
  std::ostringstream buf;
  buf << is.rdbuf();
  const json::Value root = json::parse(buf.str(), "bench report");
  json::ObjectReader r(root, "bench report", "report");

  BenchReport out;
  out.schema = r.require_string("schema");
  if (out.schema.rfind("vc2m-bench-report/", 0) != 0)
    r.fail_at("schema",
              "not a vc2m bench report (schema '" + out.schema + "')");
  out.name = r.require_string("name");
  out.git_rev = r.require_string("git_rev");
  if (const json::Value* cfg = r.claim("config", Kind::kObject)) {
    json::ObjectReader c = r.child(*cfg, "'config'");
    for (const auto& [k, v] : cfg->object) out.config[k] = c.require_string(k);
  }
  if (const json::Value* ctr = r.claim("counters", Kind::kObject)) {
    json::ObjectReader c = r.child(*ctr, "'counters'");
    for (const auto& [k, v] : ctr->object)
      out.counters[k] = c.require_number(k);
  }
  if (const json::Value* ph = r.claim("phases", Kind::kArray))
    for (const auto& p : ph->array)
      out.phases.children.push_back(parse_phase(r.child(p, "phase")));
  if (const json::Value* hs = r.claim("histograms", Kind::kObject)) {
    json::ObjectReader h = r.child(*hs, "'histograms'");
    for (const auto& [k, v] : hs->object)
      out.histograms[k] = read_histogram_summary(h.require_object(k));
  }
  if (const json::Value* pool = r.claim("pool", Kind::kObject)) {
    json::ObjectReader p = r.child(*pool, "'pool'");
    if (const json::Value* ws = p.claim("workers", Kind::kArray)) {
      for (const auto& w : ws->array) {
        json::ObjectReader wr = r.child(w, "pool worker");
        PoolSummary::Worker worker;
        worker.executed = wr.require_int<std::uint64_t>("executed");
        worker.steals = wr.require_int<std::uint64_t>("steals");
        worker.idle_sec = wr.require_number("idle_sec");
        worker.max_queue = wr.require_int<std::uint64_t>("max_queue");
        out.pool.workers.push_back(worker);
      }
    }
  }
  return out;
}

BenchReport read_bench_report_file(const std::string& path) {
  std::ifstream f = util::open_input_file(path, "bench report");
  return read_bench_report(f);
}

PerfDiffResult diff_reports(const BenchReport& base, const BenchReport& current,
                            const PerfDiffOptions& opt) {
  PerfDiffResult d;
  const auto regressed = [&](double b, double c, double floor) {
    return c > b * (1.0 + opt.max_regress) && c - b > floor;
  };

  // Phases: compare total wall seconds per path.
  std::map<std::string, FlatPhase> base_phases, cur_phases;
  for (const auto& p : flatten_profile(base.phases)) base_phases[p.path] = p;
  for (const auto& p : flatten_profile(current.phases)) cur_phases[p.path] = p;
  for (const auto& [path, bp] : base_phases) {
    const auto it = cur_phases.find(path);
    if (it == cur_phases.end()) {
      d.notes.push_back("phase '" + path + "' only in base report");
      continue;
    }
    PerfDiffEntry e;
    e.kind = "phase";
    e.key = path;
    e.base = bp.total_sec;
    e.current = it->second.total_sec;
    e.regression = regressed(e.base, e.current, opt.min_abs_sec);
    d.entries.push_back(e);
  }
  for (const auto& [path, cp] : cur_phases)
    if (!base_phases.count(path))
      d.notes.push_back("phase '" + path + "' only in current report");

  // Counters: effort must not grow; more-is-better counters are exempt.
  for (const auto& [name, b] : base.counters) {
    const auto it = current.counters.find(name);
    if (it == current.counters.end()) {
      d.notes.push_back("counter '" + name + "' only in base report");
      continue;
    }
    if (counter_exempt(name)) continue;
    PerfDiffEntry e;
    e.kind = "counter";
    e.key = name;
    e.base = b;
    e.current = it->second;
    e.regression = regressed(e.base, e.current, opt.min_abs_count);
    d.entries.push_back(e);
  }
  for (const auto& [name, c] : current.counters)
    if (!base.counters.count(name))
      d.notes.push_back("counter '" + name + "' only in current report");

  // Histograms: gate the p95 (tail latency), report mean informationally.
  for (const auto& [name, b] : base.histograms) {
    const auto it = current.histograms.find(name);
    if (it == current.histograms.end()) {
      d.notes.push_back("histogram '" + name + "' only in base report");
      continue;
    }
    PerfDiffEntry p95;
    p95.kind = "histogram";
    p95.key = name + ".p95";
    p95.base = b.p95;
    p95.current = it->second.p95;
    p95.regression = regressed(p95.base, p95.current, opt.min_abs_sec);
    d.entries.push_back(p95);
    PerfDiffEntry mean;
    mean.kind = "histogram";
    mean.key = name + ".mean";
    mean.base = b.mean;
    mean.current = it->second.mean;
    mean.regression = false;  // informational; the p95 is the gate
    d.entries.push_back(mean);
  }
  for (const auto& [name, c] : current.histograms)
    if (!base.histograms.count(name))
      d.notes.push_back("histogram '" + name + "' only in current report");

  // Pool telemetry: informational only — steals and idle time depend on OS
  // scheduling, so they never gate.
  if (!base.pool.empty() && !current.pool.empty()) {
    std::uint64_t be = 0, bs = 0, ce = 0, cs = 0;
    for (const auto& w : base.pool.workers) {
      be += w.executed;
      bs += w.steals;
    }
    for (const auto& w : current.pool.workers) {
      ce += w.executed;
      cs += w.steals;
    }
    PerfDiffEntry exec{"pool", "total_executed", static_cast<double>(be),
                       static_cast<double>(ce), false};
    PerfDiffEntry steals{"pool", "total_steals", static_cast<double>(bs),
                         static_cast<double>(cs), false};
    d.entries.push_back(exec);
    d.entries.push_back(steals);
  }

  return d;
}

void write_perfdiff(std::ostream& os, const PerfDiffResult& d) {
  const auto saved_flags = os.flags();
  const auto saved_precision = os.precision();
  std::size_t key_width = 8;
  for (const auto& e : d.entries)
    key_width = std::max(key_width, e.kind.size() + 1 + e.key.size());
  key_width += 2;
  os << "quantity" << std::string(key_width - 8, ' ') << std::setw(14)
     << "base" << std::setw(14) << "current" << std::setw(10) << "delta"
     << "\n";
  for (const auto& e : d.entries) {
    const std::string label = e.kind + ":" + e.key;
    double pct = 0;
    if (e.base != 0)
      pct = (e.current - e.base) / e.base * 100.0;
    else if (e.current != 0)
      pct = 100.0;
    char delta[24];
    std::snprintf(delta, sizeof delta, "%+.1f%%", pct);
    os << label << std::string(key_width - label.size(), ' ') << std::setw(14)
       << std::fixed << std::setprecision(4) << e.base << std::setw(14)
       << e.current << std::setw(10) << delta
       << (e.regression ? "  REGRESS" : "") << "\n";
  }
  for (const auto& n : d.notes) os << "note: " << n << "\n";
  os.flags(saved_flags);
  os.precision(saved_precision);
}

}  // namespace vc2m::obs
