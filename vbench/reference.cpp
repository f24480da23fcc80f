// The reference computation (reference.h). Its mix follows the program's:
// integer demand-bound sums with divisions (analysis), a small k-means in
// doubles (core::kmeans), sorting and node allocation (bookkeeping), and
// a pointer chase through 8 MB, more than a core's L2, so that pressure
// on the shared cache slows it as it slows the program. It calls nothing
// in src/, so a change to the program cannot move it.
#include "reference.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>

namespace vbench {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Memory for the chase, mapped per call and unmapped on return, so it
/// never counts towards the program's peak RSS.
class ChaseBuffer {
 public:
  ChaseBuffer() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("reference: mmap failed");
    next_ = static_cast<std::uint32_t*>(p);
    // i -> (0x9E3779B5 i + 1) mod 2^21 visits every slot once (a full
    // period: the multiplier is 1 mod 4, the increment odd), in an order
    // the hardware prefetcher does not follow.
    for (std::uint32_t i = 0; i < kSlots; ++i)
      next_[i] = (i * 0x9E3779B5u + 1u) & (kSlots - 1);
  }
  ~ChaseBuffer() { munmap(next_, kBytes); }
  ChaseBuffer(const ChaseBuffer&) = delete;
  ChaseBuffer& operator=(const ChaseBuffer&) = delete;
  const std::uint32_t* next() const { return next_; }

 private:
  static constexpr std::uint32_t kSlots = 1u << 21;  // 8 MB
  static constexpr std::size_t kBytes = kSlots * sizeof(std::uint32_t);
  std::uint32_t* next_ = nullptr;
};

struct Inputs {
  std::vector<std::int64_t> period, wcet;
  std::vector<std::array<double, 4>> points;
  std::vector<std::uint64_t> keys;
};

const Inputs& inputs() {
  static const Inputs in = [] {
    Inputs in;
    std::uint64_t s = 42;
    for (int i = 0; i < 16; ++i) {
      in.period.push_back(10 + static_cast<std::int64_t>(splitmix(s) % 990));
      in.wcet.push_back(1 + static_cast<std::int64_t>(splitmix(s) % 9));
    }
    for (int i = 0; i < 1024; ++i) {
      std::array<double, 4> p{};
      for (double& x : p) x = static_cast<double>(splitmix(s) % 10000) / 1e4;
      in.points.push_back(p);
    }
    for (int i = 0; i < 16384; ++i) in.keys.push_back(splitmix(s));
    return in;
  }();
  return in;
}

std::uint64_t demand_sums(const Inputs& in) {
  std::uint64_t acc = 0;
  for (std::int64_t t = 1; t <= 200000; t += 7) {
    std::int64_t demand = 0;
    for (std::size_t i = 0; i < in.period.size(); ++i)
      if (t >= in.period[i])
        demand += ((t - in.period[i]) / in.period[i] + 1) * in.wcet[i];
    acc += static_cast<std::uint64_t>(demand ^ t);
  }
  return acc;
}

std::uint64_t kmeans(const Inputs& in) {
  std::array<std::array<double, 4>, 4> c{};
  for (std::size_t k = 0; k < c.size(); ++k) c[k] = in.points[k * 97];
  std::vector<int> label(in.points.size());
  for (int iter = 0; iter < 30; ++iter) {
    std::array<std::array<double, 4>, 4> sum{};
    std::array<int, 4> n{};
    for (std::size_t p = 0; p < in.points.size(); ++p) {
      double best = 1e300;
      for (int k = 0; k < 4; ++k) {
        double d = 0;
        for (int x = 0; x < 4; ++x) {
          const double e = in.points[p][x] - c[k][x];
          d += e * e;
        }
        if (d < best) {
          best = d;
          label[p] = k;
        }
      }
      ++n[label[p]];
      for (int x = 0; x < 4; ++x) sum[label[p]][x] += in.points[p][x];
    }
    for (int k = 0; k < 4; ++k)
      if (n[k] > 0)
        for (int x = 0; x < 4; ++x) c[k][x] = sum[k][x] / n[k];
  }
  std::uint64_t acc = 0;
  for (const int l : label) acc = acc * 31 + static_cast<std::uint64_t>(l);
  return acc;
}

std::uint64_t sort_and_allocate(const Inputs& in) {
  std::vector<std::uint64_t> v = in.keys;
  std::sort(v.begin(), v.end());
  std::map<std::uint64_t, std::vector<int>> m;
  for (std::size_t i = 0; i < 4096; ++i)
    m[v[i * 4] % 1021].push_back(static_cast<int>(i));
  std::uint64_t acc = v[v.size() / 2];
  for (const auto& [k, list] : m) acc += k * list.size();
  return acc;
}

std::uint64_t chase(const std::uint32_t* next) {
  std::uint32_t i = 0;
  for (int step = 0; step < 150000; ++step) i = next[i];
  return i;
}

}  // namespace

std::vector<double> reference_passes(int passes) {
  const Inputs& in = inputs();
  const ChaseBuffer buffer;
  static std::uint64_t expected = 0;
  std::vector<double> ms;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t sum =
        demand_sums(in) ^ kmeans(in) ^ sort_and_allocate(in) ^
        chase(buffer.next());
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    if (expected == 0) expected = sum;
    if (sum != expected)
      throw std::runtime_error("reference pass computed another checksum");
  }
  return ms;
}

}  // namespace vbench
