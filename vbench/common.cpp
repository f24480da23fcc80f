// Helpers shared by the sweep and serve workloads (declared in bench.h).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/schedulability.h"
#include "bench.h"
#include "reference.h"
#include "stats.h"

namespace vbench {

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fnv_hex(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001B3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string recheck_allocation(std::span<const vc2m::model::Vcpu> vcpus,
                               const vc2m::core::HvAllocResult& m,
                               const vc2m::model::PlatformSpec& platform,
                               const vc2m::model::Taskset& tasks) {
  std::ostringstream why;
  const std::size_t cores = m.vcpus_on_core.size();
  if (!m.schedulable) return "allocation not marked schedulable";
  if (cores == 0 || cores != m.cores_used || m.cache.size() != cores ||
      m.bw.size() != cores || cores > platform.cores) {
    why << "core count mismatch: used=" << m.cores_used << " lists=" << cores
        << " platform=" << platform.cores;
    return why.str();
  }
  std::vector<int> placed(vcpus.size(), 0);
  unsigned cache_sum = 0, bw_sum = 0;
  const auto& g = platform.grid;
  for (std::size_t k = 0; k < cores; ++k) {
    if (m.cache[k] < g.c_min || m.cache[k] > g.c_max || m.bw[k] < g.b_min ||
        m.bw[k] > g.b_max) {
      why << "core " << k << " partitions (" << m.cache[k] << "," << m.bw[k]
          << ") outside the grid";
      return why.str();
    }
    cache_sum += m.cache[k];
    bw_sum += m.bw[k];
    for (const std::size_t v : m.vcpus_on_core[k]) {
      if (v >= vcpus.size()) return "vcpu index out of range";
      ++placed[v];
    }
    if (!vc2m::analysis::core_schedulable(vcpus, m.vcpus_on_core[k],
                                          m.cache[k], m.bw[k])) {
      why << "core " << k << " fails core_schedulable at (" << m.cache[k]
          << "," << m.bw[k] << ")";
      return why.str();
    }
  }
  for (std::size_t v = 0; v < placed.size(); ++v)
    if (placed[v] != 1) {
      why << "vcpu " << v << " placed " << placed[v] << " times";
      return why.str();
    }
  if (cache_sum > platform.total_cache() || bw_sum > platform.total_bw()) {
    why << "pools exceeded: cache " << cache_sum << "/"
        << platform.total_cache() << " bw " << bw_sum << "/"
        << platform.total_bw();
    return why.str();
  }
  if (!tasks.empty()) {
    std::set<std::pair<int, std::size_t>> served;
    std::size_t total = 0;
    for (const auto& v : vcpus)
      for (const std::size_t t : v.tasks) {
        served.insert({v.vm, t});
        ++total;
      }
    if (total != tasks.size() || served.size() != tasks.size()) {
      why << "tasks served " << total << " (distinct " << served.size()
          << ") of " << tasks.size();
      return why.str();
    }
  }
  return {};
}

std::string join(const std::vector<double>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i ? " " : "") << values[i];
  return os.str();
}

void run_reps(const Args& args, Result& out, int sub_seeds,
              const std::function<bool(int, bool, Rep&)>& rep) {
  std::vector<Rep> firsts;  // each sub-seed's first repetition
  std::vector<std::uint64_t> first_failed;
  vc2m::util::LogHistogram op_seconds;  // every repetition's, pooled
  double ops = 0, measured = 0;
  std::vector<double> rep_ops, rep_mean, rep_tail, rss;
  std::vector<double> ref_ms = reference_passes(kRefPasses);
  for (int i = 0; i < sub_seeds || measured < args.seconds; ++i) {
    const int j = i % sub_seeds;
    const bool first = i < sub_seeds;
    const std::uint64_t attempted = out.attempted, failed = out.failed;
    Rep r;
    if (!rep(j, first, r)) return;  // reported through `out`
    for (const double ms : reference_passes(kRefPasses)) ref_ms.push_back(ms);
    if (first) {
      firsts.push_back(r);
      first_failed.push_back(out.failed - failed);
    } else {
      const auto& f = firsts[static_cast<std::size_t>(j)];
      if (r.digest != f.digest)
        out.fail("sub-seed " + std::to_string(j) + " output digest " +
                 r.digest + " differs from " + f.digest);
      if (out.failed - failed != first_failed[static_cast<std::size_t>(j)])
        out.fail("sub-seed " + std::to_string(j) +
                 " failed another number of operations when repeated");
      // attempted/failed count each input once, so they do not depend on
      // how many repetitions fit into --seconds on this host.
      out.attempted = attempted;
      out.failed = failed;
    }
    ops += r.ops;
    measured += r.wall_s;
    op_seconds.merge(r.op_seconds);
    rep_ops.push_back(r.ops / r.wall_s);
    rep_mean.push_back(r.op_seconds.mean() * 1e3);
    rep_tail.push_back(histogram_quantile(r.op_seconds, kTailQ) * 1e3);
    rss.push_back(r.rss_mb);
  }
  double modeled = 0;
  std::string digests;
  for (const Rep& r : firsts) {
    modeled += r.modeled_us / sub_seeds;
    digests += r.digest + "|";
  }
  // Whole-run figures: a host whose speed switches every second or so is
  // averaged over the run instead of sampled once per repetition. Then
  // scaled to the nominal host by the reference passes timed between the
  // repetitions (reference.h): `slow` > 1 when the host ran slower.
  const double raw_ops = ops / measured;
  const double raw_mean = op_seconds.mean() * 1e3;
  const double raw_tail = histogram_quantile(op_seconds, kTailQ) * 1e3;
  double ref_sum = 0;
  for (const double ms : ref_ms) ref_sum += ms;
  const double slow = ref_sum / static_cast<double>(ref_ms.size()) /
                      kNominalPassMs;
  out.host_slowdown = slow;
  out.set("norm_ops_per_s", raw_ops * slow);
  out.set("norm_op_ms_mean", raw_mean / slow);
  out.set("norm_op_ms_tail", raw_tail / slow);
  out.note("host_slowdown", std::to_string(slow));
  out.note("reference_ms.passes", std::to_string(ref_ms.size()));
  out.note("reference_ms.median", std::to_string(median(ref_ms)));
  out.note("ops_per_s", std::to_string(raw_ops));
  out.note("op_ms_mean", std::to_string(raw_mean));
  out.note("op_ms_tail", std::to_string(raw_tail));
  out.set("modeled_us_per_op", modeled);
  out.set("peak_rss_mb", median(rss));
  out.note("repetitions", std::to_string(rss.size()));
  out.note("measured_s", std::to_string(measured));
  out.note("op_ms_tail.quantile", std::to_string(kTailQ));
  // The highest percentile with at least 10 samples beyond it;
  // op_ms_tail must not go above it.
  out.note("op_samples", std::to_string(op_seconds.count()));
  out.note("op_tail_highest_allowed",
           std::to_string(tail_quantile(op_seconds.count())));
  out.note("ops_per_s.reps", join(rep_ops));
  out.note("op_ms_mean.reps", join(rep_mean));
  out.note("op_ms_tail.reps", join(rep_tail));
  out.note("peak_rss_mb.reps", join(rss));
  out.note("output_digest", fnv_hex(digests));
}

double profile_seconds(const vc2m::obs::PhaseStats& node,
                       const std::string& name, bool self) {
  double sum = 0;
  if (node.name == name) sum += self ? node.self_sec : node.total_sec;
  for (const auto& child : node.children)
    sum += profile_seconds(child, name, self);
  return sum;
}

void set_effort_metrics(const vc2m::util::AllocCounters& c, Result& out) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("core.kmeans.runs", d(c.kmeans_runs));
  out.set("core.kmeans.iterations", d(c.kmeans_iterations));
  out.set("analysis.dbf_evaluations", d(c.dbf_evaluations));
  out.set("analysis.budget_evaluations", d(c.budget_evaluations));
  out.set("analysis.budget_cache_hits", d(c.budget_cache_hits));
  out.set("analysis.budget_hit_ratio",
          Ratio{d(c.budget_cache_hits),
                d(c.budget_cache_hits + c.budget_evaluations)}
              .value());
  out.set("analysis.soa_rebuilds", d(c.soa_rebuilds));
  out.set("analysis.arena_bytes", d(c.arena_bytes));
  out.set("analysis.inner_tasks", d(c.inner_tasks));
  out.set("core.hv_alloc.candidate_packings", d(c.candidate_packings));
  out.set("core.hv_alloc.partition_grants", d(c.partition_grants));
  out.set("core.hv_alloc.vcpu_migrations", d(c.vcpu_migrations));
  out.set("core.hv_alloc.admission_tests", d(c.admission_tests));
  out.set("core.hv_alloc.admission_passed", d(c.admission_passed));
  out.set("core.hv_alloc.admission_pass_ratio",
          Ratio{d(c.admission_passed), d(c.admission_tests)}.value());
  out.set("core.core_load.cache_hits", d(c.load_cache_hits));
}

}  // namespace vbench
