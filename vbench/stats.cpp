#include "stats.h"

#include <algorithm>
#include <cmath>

namespace vbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double tail_quantile(std::size_t n, double min_beyond) {
  static constexpr double kLadder[] = {0.99999, 0.9999, 0.999, 0.99, 0.9};
  for (const double q : kLadder)
    if (static_cast<double>(n) * (1.0 - q) >= min_beyond - 1e-9) return q;
  return 0.5;
}

std::map<std::string, double> self_time_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

double root_time_ns(const std::vector<Span>& spans) {
  double total = 0;
  for (const Span& s : spans)
    if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns);
  return total;
}

double histogram_quantile(const vc2m::util::LogHistogram& h, double q) {
  if (h.empty()) return 0;
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count() - 1);
  double cum = static_cast<double>(h.nonpositive_count());
  if (pos < cum) return h.min();
  const auto& counts = h.bucket_counts();
  const double sub = static_cast<double>(std::size_t{1} << h.config().sub_bits);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c == 0) continue;
    if (pos < cum + c) {
      const double lo = std::exp2(static_cast<double>(i) / sub +
                                  static_cast<double>(h.config().min_exp2));
      const double frac = (pos - cum + 0.5) / c;
      return std::clamp(lo * std::exp2(frac / sub), h.min(), h.max());
    }
    cum += c;
  }
  return h.max();
}

}  // namespace vbench
