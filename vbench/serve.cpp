// The two admission-service workloads, both through service::run_service
// on Platform A with 20,000-request traces:
//
//  serve-steady — poisson arrivals of small VMs (util 0.02..0.1) with the
//    remove rate matched to the admit rate, so occupancy plateaus and the
//    commit path (admit/resize/remove, surface re-derivation in
//    materialize_taskset) dominates. No deadline, so the overload ladder
//    stays idle. Only the traced run journals (one fsync per decision) and
//    writes the metrics timeline, and measures both from its replays: on a
//    shared disk the fsync latency moved the end-to-end figures by a fifth
//    to a third between runs (NOTES.md).
//
//  serve-flash — a ×40 flash crowd of large VMs (util 0.1..0.4), no
//    journal, deadline 400 µs, queue cap 32, criticality shedding: the
//    platform saturates, so admission mostly rejects and the overload
//    ladder (downgrade, defer, shed, backpressure) runs. A journal or
//    commit-path change should not move it. Deadlines below the initial
//    200 µs/task cost estimate downgrade every request and admit nothing
//    (NOTES.md), which is why 400 µs is used.
//
// Each run is checked: the report's outcome counts must partition the
// trace, the request spans must pass obs::check_request_spans, every
// repetition of a trace must reproduce the same outcome digest, and on the
// first trace the final admitted state is rebuilt from the committed
// decisions, must match the report digest, and is re-checked core by core.
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/admission.h"
#include "core/strategy.h"
#include "obs/profiler.h"
#include "obs/request_span.h"
#include "scenario/digest.h"
#include "service/journal.h"
#include "service/report.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "service/trace_gen.h"
#include "stats.h"
#include "util/phase_profiler.h"
#include "workload/parsec.h"

namespace vbench {
namespace {

using namespace vc2m;

service::ServiceConfig serve_config(const Args& args) {
  const std::string requests = args.smoke ? "600" : "20000";
  service::ServiceConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.platform_name = "A";
  cfg.seed = args.seed;
  cfg.collect_spans = true;
  if (args.workload == "serve-steady") {
    cfg.trace = service::parse_trace_spec(
        "poisson:requests=" + requests +
        ",interarrival-us=300,util=0.02..0.1,remove-frac=0.45,"
        "resize-frac=0.1");
    if (args.trace) {
      cfg.journal_path = args.dir + "/journal.wal";
      cfg.timeline_path = args.dir + "/timeline.bin";
    }
  } else {
    cfg.trace = service::parse_trace_spec(
        "flash:requests=" + requests +
        ",interarrival-us=300,util=0.1..0.4,flash-x=40,flash-at=0.2,"
        "flash-len=0.5");
    cfg.deadline = util::Time::us(400);
    cfg.queue_cap = 32;
    cfg.shed = service::ShedPolicy::kCriticality;
  }
  return cfg;
}

/// The service's per-attempt RNG seed (service/service.cpp, mix_seed):
/// replaying a commit needs the stream the service used.
std::uint64_t attempt_seed(std::uint64_t seed, std::uint64_t seq,
                           unsigned attempt) {
  std::uint64_t h = seed ^ 0xCBF29CE484222325ull;
  h = (h ^ (seq + 0x9E3779B97F4A7C15ull)) * 0x100000001B3ull;
  h = (h ^ (attempt + 1)) * 0x100000001B3ull;
  return h;
}

bool is_terminal(const std::string& outcome) { return outcome != "deferred"; }

/// Outcomes whose attempt materialized the request's taskset.
bool materializes(const std::string& outcome) {
  return outcome == "admitted" || outcome == "rejected" ||
         outcome == "probe_rejected" || outcome == "deferred" ||
         outcome == "timed_out" || outcome == "resized" ||
         outcome == "resize_rejected";
}

std::string outcome_text(const service::ServeReport& r) {
  std::ostringstream os;
  os << "admitted=" << r.admitted << "|rejected=" << r.rejected
     << "|probe_rejected=" << r.probe_rejected << "|removed=" << r.removed
     << "|resized=" << r.resized << "|resize_rejected=" << r.resize_rejected
     << "|not_present=" << r.not_present << "|deferred=" << r.deferred
     << "|shed=" << r.shed << "|timed_out=" << r.timed_out
     << "|downgrades=" << r.downgrades << "|backpressure=" << r.backpressure
     << "|commits=" << r.commits << "|digest=" << r.digest;
  return os.str();
}

/// Structural checks of one run's report and spans; shed and timed-out
/// requests count as failed operations.
void check_run(const service::ServiceResult& run, Result& out) {
  const service::ServeReport& r = run.report;
  out.attempted += r.requests;
  out.failed += r.shed + r.timed_out;
  if (run.interrupted || r.arrivals != r.requests)
    out.fail("run ended early: " + std::to_string(r.arrivals) + " of " +
             std::to_string(r.requests) + " arrivals");
  const std::uint64_t terminal = r.admitted + r.rejected + r.probe_rejected +
                                 r.removed + r.resized + r.resize_rejected +
                                 r.not_present + r.shed + r.timed_out;
  if (terminal != r.requests)
    out.fail("terminal outcomes " + std::to_string(terminal) +
             " do not partition " + std::to_string(r.requests) + " requests");
  const obs::SpanCheckResult sc = obs::check_request_spans(run.spans);
  if (!sc.ok()) out.fail("request spans: " + sc.summary());
  std::uint64_t terminal_spans = 0, deferred_spans = 0;
  for (const auto& s : run.spans)
    (is_terminal(s.outcome) ? terminal_spans : deferred_spans) += 1;
  if (terminal_spans != r.requests || deferred_spans != r.deferred)
    out.fail("span outcomes disagree with the report");
}

/// Rebuild the final admitted state from the committed decisions, in
/// decision order, and re-check it from outside the solver.
void check_final_state(const service::ServiceConfig& cfg,
                       const service::ServiceResult& run, Result& out) {
  const auto trace = service::generate_trace(cfg.trace, cfg.seed);
  core::AdmissionState st;
  for (const auto& s : run.spans) {
    if (s.outcome == "removed") {
      st = core::remove_vm(st, s.vm);
      continue;
    }
    if (s.outcome != "admitted" && s.outcome != "resized") continue;
    const service::ServeRequest& req = trace[s.seq];
    const model::Taskset tasks =
        service::materialize_taskset(req, cfg.platform.grid);
    util::Rng rng(attempt_seed(cfg.seed, s.seq, s.attempt));
    core::VmAllocConfig vmc = cfg.vm_cfg;
    vmc.request_id = static_cast<std::int64_t>(s.seq);
    core::AdmitResult r =
        s.outcome == "admitted"
            ? core::admit_vm(st, tasks, req.vm, cfg.platform, vmc, rng)
            : core::resize_vm(st, tasks, req.vm, cfg.platform, vmc, rng);
    if (!r.admitted) {
      out.fail("replayed commit of seq " + std::to_string(s.seq) +
               " was rejected");
      return;
    }
    st = std::move(r.state);
  }
  core::SolveResult sr;
  sr.schedulable = st.mapping.schedulable;
  sr.vcpus = st.vcpus;
  sr.mapping = st.mapping;
  if (scenario::solve_digest(sr) != run.report.digest)
    out.fail("replayed final state does not match the report digest");
  if (!st.vcpus.empty()) {
    const std::string why =
        recheck_allocation(st.vcpus, st.mapping, cfg.platform, {});
    if (!why.empty()) {
      out.failed += 1;
      out.fail("final state fails the re-check: " + why);
    }
  }
}

struct ServeRep {
  double wall = 0;
  double rss_mb = 0;
  service::ServiceResult run;
};

/// One checked run of the service. With `check_state` it also rebuilds
/// and re-checks the final state (outside the timed call).
void run_checked(const service::ServiceConfig& cfg, bool check_state,
                 Result& out, ServeRep& rep) {
  // Every repetition starts from fresh files, as the first one does.
  if (!cfg.journal_path.empty()) {
    std::filesystem::remove(cfg.journal_path);
    std::filesystem::remove(cfg.journal_path + ".snap");
  }
  if (!cfg.timeline_path.empty()) std::filesystem::remove(cfg.timeline_path);
  reset_peak_rss();
  const double t0 = now_s();
  rep.run = service::run_service(cfg);
  rep.wall = now_s() - t0;
  rep.rss_mb = peak_rss_mb();
  check_run(rep.run, out);
  if (check_state) check_final_state(cfg, rep.run, out);
}

/// Decisions that ran the full solver: the serve "op" whose wall time the
/// end-to-end latency metrics report. Removes and not-present requests
/// are bookkeeping (about half of the decisions) and would swamp them.
bool full_solve(const std::string& outcome) {
  return outcome == "admitted" || outcome == "rejected" ||
         outcome == "resized" || outcome == "resize_rejected";
}

void run_untraced(const Args& args, Result& out) {
  run_reps(args, out, kSubSeeds, [&](int j, bool first, Rep& r) {
    Args sub = args;
    sub.seed = sub_seed(args.seed, j);
    const service::ServiceConfig cfg = serve_config(sub);
    ServeRep rep;
    run_checked(cfg, first && j == 0, out, rep);
    double cost = 0;
    for (const auto& s : rep.run.spans)
      if (full_solve(s.outcome)) {
        r.op_seconds.add(static_cast<double>(s.wall_ns) / 1e9);
        cost += static_cast<double>(s.cost_ns);
      }
    r.wall_s = rep.wall;
    r.ops = static_cast<double>(rep.run.report.requests);
    const double n =
        static_cast<double>(std::max<std::uint64_t>(r.op_seconds.count(), 1));
    r.modeled_us = cost / n / 1e3;
    r.rss_mb = rep.rss_mb;
    r.digest = fnv_hex(outcome_text(rep.run.report));
    if (first)
      out.note("outcomes." + std::to_string(j), outcome_text(rep.run.report));
    return true;
  });
}

/// Time `fn` per call; returns the per-call durations in µs.
template <typename Fn>
std::vector<double> time_calls(std::size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return us;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void run_traced(const Args& run_args, Result& out) {
  Args args = run_args;
  args.seed = sub_seed(run_args.seed, 0);
  const service::ServiceConfig cfg = serve_config(args);
  ServeRep base;
  run_checked(cfg, true, out, base);
  const std::string digest = fnv_hex(outcome_text(base.run.report));

  util::PhaseProfiler::reset();
  util::PhaseProfiler::set_enabled(true);
  ServeRep traced;
  util::AllocCounters effort;
  {
    util::AllocCounterScope scope;
    run_checked(cfg, false, out, traced);
    effort = scope.counters();
  }
  util::PhaseProfiler::set_enabled(false);
  const obs::PhaseStats profile = obs::merged_profile();
  if (fnv_hex(outcome_text(traced.run.report)) != digest)
    out.fail("traced run's outcomes differ from the untraced run's");
  const auto& spans = traced.run.spans;
  const service::ServeReport& rep = traced.run.report;

  // Decision wall time by outcome (the service's own RequestSpan.wall_ns).
  std::map<std::string, std::vector<double>> by_outcome;
  double decision_s = 0;
  std::vector<double> wait_us, latency_us;
  for (const auto& s : spans) {
    by_outcome[s.outcome].push_back(static_cast<double>(s.wall_ns) / 1e3);
    decision_s += static_cast<double>(s.wall_ns) / 1e9;
    if (s.outcome != "shed")
      wait_us.push_back(static_cast<double>(s.dequeued_ns - s.queued_ns) / 1e3);
    if (is_terminal(s.outcome))
      latency_us.push_back(static_cast<double>(s.latency_ns) / 1e3);
  }
  out.set("core.admission.admit_us_p50", quantile(by_outcome["admitted"], 0.5));
  out.set("core.admission.admit_us_p99", quantile(by_outcome["admitted"], 0.99));
  out.set("core.admission.reject_us_p50",
          quantile(by_outcome["rejected"], 0.5));
  out.set("core.admission.resize_us_p50", quantile(by_outcome["resized"], 0.5));
  out.set("core.admission.remove_us_p50", quantile(by_outcome["removed"], 0.5));
  for (const char* o : {"admitted", "rejected", "resized", "removed"})
    out.note(std::string("decisions.") + o + ".n",
             std::to_string(by_outcome[o].size()));
  const double full = static_cast<double>(rep.admitted + rep.rejected +
                                          rep.resized + rep.resize_rejected);
  out.set("core.admission.commits",
          static_cast<double>(rep.admitted + rep.resized));
  out.set("core.admission.full_solves", full);
  out.set("core.admission.commit_ratio",
          Ratio{static_cast<double>(rep.admitted + rep.resized), full}.value());
  out.set("service.queue_wait_us_p99", quantile(wait_us, 0.99));
  out.set("service.modeled_latency_us_p50", quantile(latency_us, 0.5));
  out.set("service.modeled_latency_us_p99", quantile(latency_us, 0.99));
  out.set("service.downgrades", static_cast<double>(rep.downgrades));
  out.set("service.deferred", static_cast<double>(rep.deferred));
  out.set("service.shed", static_cast<double>(rep.shed));
  out.set("service.backpressure", static_cast<double>(rep.backpressure));
  out.set("service.full_solve_ratio",
          Ratio{full, full + static_cast<double>(rep.downgrades)}.value());

  set_effort_metrics(effort, out);
  out.set("core.kmeans.self_s", profile_seconds(profile, "cluster", true));
  out.set("analysis.min_budget_self_s",
          profile_seconds(profile, "min_budget", true) +
              profile_seconds(profile, "min_budget_surface", true) +
              profile_seconds(profile, "checkpoints", true));
  out.set("core.hv_alloc.phase1_s",
          profile_seconds(profile, "phase1_pack", false));
  out.set("core.hv_alloc.phase2_s",
          profile_seconds(profile, "phase2_resources", false));
  out.set("core.hv_alloc.phase3_s",
          profile_seconds(profile, "phase3_balance", false));

  // Replays from outside the service, one timed call each: the trace's
  // materialize_taskset calls, and JournalWriter::append (fsync included)
  // of the run's own journal and timeline payloads.
  const auto trace = service::generate_trace(cfg.trace, cfg.seed);
  std::vector<const obs::RequestSpan*> mat;
  for (const auto& s : spans)
    if (materializes(s.outcome)) mat.push_back(&s);
  std::size_t tasks_seen = 0;
  const std::vector<double> mat_us = time_calls(mat.size(), [&](std::size_t i) {
    tasks_seen +=
        service::materialize_taskset(trace[mat[i]->seq], cfg.platform.grid)
            .size();
  });
  out.note("materialize.tasks", std::to_string(tasks_seen));
  const double materialize_s = sum(mat_us) / 1e6;
  out.set("workload.materialize_us_p50", quantile(mat_us, 0.5));
  out.set("workload.materialize_s", materialize_s);
  out.set("workload.materialize_share",
          Ratio{materialize_s, traced.wall}.value());

  double journal_s = 0, timeline_s = 0;
  if (!cfg.journal_path.empty()) {
    // Snapshots rotate the journal, so the file holds the decisions since
    // the last snapshot: their mean append time and frame size stand for
    // every decision's.
    const service::JournalScan js = service::scan_journal(cfg.journal_path);
    service::JournalWriter w;
    w.open_fresh(args.dir + "/replay.wal", js.config_digest, 0);
    double frame_bytes = 0;
    for (const auto& p : js.records) frame_bytes += static_cast<double>(p.size() + 12);
    const std::vector<double> us = time_calls(
        js.records.size(), [&](std::size_t i) { w.append(js.records[i]); });
    w.close();
    const double appends = static_cast<double>(spans.size());
    const double per_record = js.records.empty() ? 0 : 1.0 / js.records.size();
    journal_s = appends * sum(us) * per_record / 1e6;
    out.set("service.journal.appends", appends);
    out.set("service.journal.bytes", appends * frame_bytes * per_record);
    out.set("service.journal.append_us_p50", quantile(us, 0.5));
    out.set("service.journal.append_us_p99", quantile(us, 0.99));
    out.set("service.journal.append_s", journal_s);
    out.set("service.journal.share", Ratio{journal_s, traced.wall}.value());
    out.note("journal.replayed_records", std::to_string(js.records.size()));
  }
  if (!cfg.timeline_path.empty()) {
    const service::FrameScan fs = service::scan_frames(cfg.timeline_path);
    if (fs.payloads.empty()) {
      out.fail("timeline has no header");
    } else {
      service::JournalWriter w;
      w.open_with_header(args.dir + "/replay.bin", fs.payloads.front());
      double bytes = 0;
      for (const auto& p : fs.payloads) bytes += static_cast<double>(p.size() + 12);
      const std::vector<double> us =
          time_calls(fs.payloads.size() - 1,
                     [&](std::size_t i) { w.append(fs.payloads[i + 1]); });
      w.close();
      timeline_s = sum(us) / 1e6;
      out.set("service.telemetry.samples", static_cast<double>(us.size()));
      out.set("service.telemetry.bytes", bytes);
      out.set("service.telemetry.append_us_p50", quantile(us, 0.5));
    }
  }

  std::vector<double> gen_s;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    const auto t = service::generate_trace(cfg.trace, cfg.seed);
    gen_s.push_back(now_s() - t0);
    if (t.size() != trace.size()) out.fail("trace generation is not stable");
  }
  out.set("service.trace_gen_s", median(gen_s));
  const double w0 = now_s();
  service::write_serve_report_file(args.dir + "/serve-report.json", rep);
  out.set("obs.report_write_ms", (now_s() - w0) * 1e3);

  // Layer self time of the single-threaded run. RequestSpan carries a wall
  // duration but no start, so the decomposition is by duration: decisions
  // (materialize + admission) and the replayed journal and timeline
  // appends; the untraced remainder is the event loop, queueing, snapshot
  // writes and report assembly.
  const double self_sum = decision_s + journal_s + timeline_s;
  out.note("self.workload.materialize_s", std::to_string(materialize_s));
  out.note("self.core.admission_s", std::to_string(decision_s - materialize_s));
  out.note("self.service.journal_s", std::to_string(journal_s));
  out.note("self.service.telemetry_s", std::to_string(timeline_s));
  out.set("trace.self_sum_s", self_sum);
  out.set("trace.capacity_s", traced.wall);
  out.set("trace.remainder_s", traced.wall - self_sum);
  out.set("trace.traced_wall_s", traced.wall);
  out.set("trace.untraced_wall_s", base.wall);
  out.set("trace.overhead_frac", traced.wall / base.wall - 1);
  out.note("sub_seed0_digest", digest);
}

}  // namespace

void setup_serve(const Args& run_args) {
  Args args = run_args;
  args.seed = sub_seed(run_args.seed, 0);
  const service::ServiceConfig cfg = serve_config(args);
  for (const auto& key : core::default_solution_keys())
    core::StrategyRegistry::instance().require(key);
  workload::parsec_suite();
  const auto trace = service::generate_trace(cfg.trace, cfg.seed);
  if (trace.size() != cfg.trace.requests)
    throw std::runtime_error("trace generation returned a short trace");
  service::JournalWriter journal, timeline;
  if (!cfg.journal_path.empty())
    journal.open_fresh(cfg.journal_path, service::config_digest(cfg), 0);
  if (!cfg.timeline_path.empty())
    timeline.open_with_header(
        cfg.timeline_path,
        service::timeline_header_payload(service::config_digest(cfg),
                                         cfg.sample_every));
}

void run_serve(const Args& args, Result& out) {
  setup_serve(args);
  if (args.trace) run_traced(args, out);
  else run_untraced(args, out);
}

}  // namespace vbench
