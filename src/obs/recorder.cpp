#include "obs/recorder.h"

#include <algorithm>

#include "sim/faults.h"

namespace vc2m::obs {

namespace {

std::string task_metric(std::size_t i, const char* what) {
  return "task." + std::to_string(i) + "." + what;
}
std::string vcpu_metric(std::size_t j, const char* what) {
  return "vcpu." + std::to_string(j) + "." + what;
}
std::string core_metric(std::size_t k, const char* what) {
  return "core." + std::to_string(k) + "." + what;
}

// Integer counters become registry counters, the one real-valued
// measurement (kmeans_final_shift) a gauge.
void record_alloc(MetricsRegistry& registry, const std::string& name,
                  std::uint64_t v) {
  registry.counter(name).inc(v);
}
void record_alloc(MetricsRegistry& registry, const std::string& name,
                  double v) {
  registry.gauge(name).set(v);
}

}  // namespace

const std::vector<double>& ratio_bounds() {
  static const std::vector<double> kBounds = {
      0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0};
  return kBounds;
}

void MetricsRecorder::on_job_complete(std::size_t task, util::Time response,
                                      util::Time period, bool missed) {
  const double ratio = period.is_zero() ? 0.0 : response.ratio(period);
  reg_.histogram(task_metric(task, "response_ratio"), ratio_bounds())
      .add(ratio);
  reg_.histogram("sim.response_ratio", ratio_bounds()).add(ratio);
  if (missed) reg_.counter(task_metric(task, "misses")).inc();
}

void MetricsRecorder::on_vcpu_period_end(std::size_t vcpu,
                                         util::Time consumed,
                                         util::Time budget, bool exhausted) {
  const double fraction =
      budget.is_zero() ? 0.0 : consumed.ratio(budget);
  reg_.histogram(vcpu_metric(vcpu, "budget_fraction"), ratio_bounds())
      .add(fraction);
  if (exhausted) reg_.counter(vcpu_metric(vcpu, "overruns")).inc();
}

void MetricsRecorder::on_throttle_end(std::size_t core,
                                      util::Time duration) {
  reg_.counter(core_metric(core, "throttles")).inc();
  reg_.counter(core_metric(core, "throttled_ns"))
      .inc(static_cast<std::uint64_t>(duration.raw_ns()));
}

void MetricsRecorder::on_fault_injected(sim::FaultKind kind) {
  reg_.counter("fault." + sim::to_string(kind)).inc();
  reg_.counter("sim.faults_injected").inc();
}

void MetricsRecorder::on_job_killed(std::size_t task) {
  reg_.counter(task_metric(task, "killed")).inc();
  reg_.counter("enforce.jobs_killed").inc();
}

void MetricsRecorder::on_job_deferred(std::size_t task) {
  reg_.counter(task_metric(task, "deferred")).inc();
  reg_.counter("enforce.jobs_deferred").inc();
}

void MetricsRecorder::on_task_suspended(std::size_t task) {
  (void)task;
  reg_.counter("enforce.task_suspensions").inc();
}

void MetricsRecorder::on_task_resumed(std::size_t task) {
  (void)task;
  reg_.counter("enforce.task_resumes").inc();
}

void MetricsRecorder::on_vcpu_budget_overrun(std::size_t vcpu,
                                             util::Time overdraw) {
  (void)overdraw;
  reg_.counter(vcpu_metric(vcpu, "budget_overruns")).inc();
  reg_.counter("enforce.vcpu_budget_overruns").inc();
}

void MetricsRecorder::finalize(const sim::SimStats& stats,
                               util::Time duration) {
  for (std::size_t k = 0; k < stats.core_busy_fraction.size(); ++k) {
    const double busy = stats.core_busy_fraction[k];
    const double throttled =
        duration.is_zero() || k >= stats.core_throttled_time.size()
            ? 0.0
            : stats.core_throttled_time[k].ratio(duration);
    reg_.gauge(core_metric(k, "busy_fraction")).set(busy);
    reg_.gauge(core_metric(k, "throttled_fraction")).set(throttled);
    reg_.gauge(core_metric(k, "idle_fraction"))
        .set(std::max(0.0, 1.0 - busy - throttled));
  }
  reg_.counter("sim.jobs_released").inc(stats.jobs_released);
  reg_.counter("sim.jobs_completed").inc(stats.jobs_completed);
  reg_.counter("sim.deadline_misses").inc(stats.deadline_misses);
  reg_.counter("sim.vcpu_context_switches").inc(stats.vcpu_context_switches);
  reg_.counter("sim.task_dispatches").inc(stats.task_dispatches);
  reg_.counter("sim.throttles").inc(stats.throttles);
  reg_.counter("sim.bw_refills").inc(stats.refills);
  reg_.counter("sim.jobs_killed").inc(stats.jobs_killed);
  reg_.counter("sim.jobs_deferred").inc(stats.jobs_deferred);
  reg_.counter("sim.task_suspensions").inc(stats.task_suspensions);
  reg_.counter("sim.vcpu_budget_overruns").inc(stats.vcpu_budget_overruns);
  reg_.gauge("sim.max_tardiness_ms").set(stats.max_tardiness.to_ms());
}

void record_alloc_counters(MetricsRegistry& registry,
                           const util::AllocCounters& counters) {
#define VC2M_RECORD(type, name, label, exempt) \
  record_alloc(registry, "alloc." #name, counters.name);
  VC2M_ALLOC_COUNTERS(VC2M_RECORD)
#undef VC2M_RECORD
}

}  // namespace vc2m::obs
