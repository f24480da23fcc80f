#include "scenario/scenario.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/strategy.h"
#include "obs/decision_log.h"
#include "obs/json.h"
#include "scenario/digest.h"
#include "sim/enforcement.h"
#include "sim/faults.h"
#include "util/error.h"

namespace vc2m::scenario {

namespace {

using obs::json::ObjectReader;
using obs::json::Value;
using Kind = Value::Kind;

WorkloadSpec parse_workload(ObjectReader r, const std::string& base_dir) {
  WorkloadSpec w;
  if (r.has("file")) {
    w.kind = WorkloadSpec::Kind::kFile;
    const std::string rel = r.require_string("file");
    if (rel.empty())
      r.fail_at("file", "'workload' key 'file' must not be empty");
    std::filesystem::path p(rel);
    w.file = p.is_absolute() || base_dir.empty()
                 ? rel
                 : (std::filesystem::path(base_dir) / p).string();
    r.finish();
    return w;
  }
  w.kind = WorkloadSpec::Kind::kGenerate;
  w.util = r.require_number("util");
  if (!(w.util > 0))
    r.fail_at("util", "'workload' key 'util' must be positive");
  const std::string dist = r.get_string("dist", "uniform");
  if (dist == "uniform") w.dist = workload::UtilDist::kUniform;
  else if (dist == "light") w.dist = workload::UtilDist::kBimodalLight;
  else if (dist == "medium") w.dist = workload::UtilDist::kBimodalMedium;
  else if (dist == "heavy") w.dist = workload::UtilDist::kBimodalHeavy;
  else
    r.fail_at("dist", "'workload' key 'dist' must be one of "
                      "uniform|light|medium|heavy, got '" + dist + "'");
  w.vms = r.get_int("vms", 1, 1, kMaxVms);
  r.finish();
  return w;
}

Expectation parse_expect(ObjectReader r) {
  const Value& v = r.raw();
  Expectation e;
  const std::string verdict = r.require_string("verdict");
  if (verdict == "schedulable") e.schedulable = true;
  else if (verdict == "unschedulable") e.schedulable = false;
  else
    r.fail_at("verdict", "'expect' key 'verdict' must be schedulable or "
                         "unschedulable, got '" + verdict + "'");
  e.digest = r.get_string("digest", "");
  if (const Value* m = r.claim("trace_clean", Kind::kBool))
    e.trace_clean = m->boolean;
  if (r.has("min_faults_injected"))
    e.min_faults_injected = r.require_int<std::uint64_t>("min_faults_injected");
  if (r.has("max_deadline_misses"))
    e.max_deadline_misses = r.require_int<std::uint64_t>("max_deadline_misses");
  if (r.has("rejection_constraints")) {
    e.rejection_constraints = r.require_strings("rejection_constraints");
    const auto& items = v.find("rejection_constraints")->array;
    for (std::size_t i = 0; i < items.size(); ++i) {
      obs::DecisionConstraint c;
      if (!obs::decision_constraint_from_string(items[i].str, c) ||
          c == obs::DecisionConstraint::kNone)
        r.fail("'expect' names unknown rejection constraint '" +
                   items[i].str + "'",
               items[i].offset);
    }
  }
  r.finish();
  return e;
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  });
}

}  // namespace

Scenario load_scenario(const std::string& text, const std::string& source) {
  const Value root = obs::json::parse(text, source);
  ObjectReader r(root, source, "scenario");

  Scenario sc;
  sc.source = source;
  sc.content_hash = text_digest(text);
  const std::string schema = r.require_string("schema");
  if (schema != kScenarioSchema)
    r.fail_at("schema", "unsupported scenario schema '" + schema +
                            "' (want " + kScenarioSchema + ")");

  sc.name = r.require_string("name");
  if (!valid_name(sc.name))
    r.fail_at("name", "'name' must match [a-z0-9-]+, got '" + sc.name + "'");
  sc.description = r.get_string("description", "");

  sc.platform = r.get_string("platform", "A");
  if (sc.platform != "A" && sc.platform != "B" && sc.platform != "C")
    r.fail_at("platform",
              "'platform' must be A, B, or C, got '" + sc.platform + "'");

  sc.solution = r.get_string("solution", "flat");
  if (!core::StrategyRegistry::instance().find(sc.solution))
    r.fail_at("solution", "'solution' names no registered strategy: '" +
                              sc.solution + "'");

  sc.seed = r.get_int<std::uint64_t>("seed", 42);

  const std::string base_dir =
      std::filesystem::path(source).parent_path().string();
  sc.workload = parse_workload(r.require_object("workload"), base_dir);

  sc.faults = r.get_string("faults", "");
  if (!sc.faults.empty()) {
    try {
      (void)sim::parse_fault_spec(sc.faults);
    } catch (const util::Error& e) {
      r.fail_at("faults", std::string("'faults': ") + e.what());
    }
  }

  sc.policy = r.get_string("policy", "strict");
  if (!sim::enforcement_policy_from_string(sc.policy))
    r.fail_at("policy", "'policy' must be strict|kill|throttle|degrade, got '" +
                            sc.policy + "'");

  if (const Value* s = r.claim("simulate", Kind::kObject)) {
    ObjectReader sim = r.child(*s, "'simulate'");
    sc.simulate = SimulateSpec{};
    sc.simulate->hyperperiods =
        sim.get_int("hyperperiods", 3, 1, kMaxHyperperiods);
    sim.finish();
  }

  sc.expect = parse_expect(r.require_object("expect"));
  r.finish();

  // Cross-field semantics: fail at load, not halfway through a run.
  if (sc.simulate && !sc.expect.schedulable)
    r.fail_at("expect", "'simulate' requires an expected verdict of "
                        "schedulable (nothing to deploy otherwise)");
  if (!sc.simulate &&
      (sc.expect.trace_clean || sc.expect.min_faults_injected ||
       sc.expect.max_deadline_misses))
    r.fail_at("expect", "'expect' has runtime expectations (trace_clean / "
                        "min_faults_injected / max_deadline_misses) but the "
                        "scenario has no 'simulate' block");
  if (sc.expect.min_faults_injected && sc.faults.empty())
    r.fail_at("expect", "'expect' key 'min_faults_injected' requires a "
                        "'faults' plan");
  if (!sc.expect.rejection_constraints.empty() && sc.expect.schedulable)
    r.fail_at("expect", "'expect' key 'rejection_constraints' requires an "
                        "unschedulable verdict");
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.good())
    throw util::Error("cannot open scenario file '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return load_scenario(buf.str(), path);
}

std::vector<std::string> discover_scenario_files(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json")
        files.push_back(entry.path().string());
    }
    if (ec)
      throw util::Error("cannot list scenario directory '" + path +
                        "': " + ec.message());
    if (files.empty())
      throw util::Error("scenario directory '" + path +
                        "' holds no *.json files");
    std::sort(files.begin(), files.end());
    return files;
  }
  if (!fs::exists(path, ec))
    throw util::Error("scenario path '" + path + "' does not exist");
  return {path};
}

}  // namespace vc2m::scenario
