#include "scenario/digest.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "util/hash.h"

namespace vc2m::scenario {

namespace {

std::uint64_t vcpu_hash(const std::vector<model::Vcpu>& vcpus) {
  using util::fnv1a_u64;
  std::uint64_t h = util::kFnvOffset;
  for (const auto& v : vcpus) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(v.period.raw_ns()));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(v.vm));
    for (const std::size_t t : v.tasks) h = fnv1a_u64(h, t);
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        h = fnv1a_u64(h,
                      static_cast<std::uint64_t>(v.budget.at(c, b).raw_ns()));
  }
  return h;
}

}  // namespace

std::string solve_digest(const core::SolveResult& res) {
  const core::HvAllocResult& m = res.mapping;
  std::ostringstream os;
  os << "sched=" << (res.schedulable ? 1 : 0) << "|cores=" << m.cores_used
     << "|cache=";
  for (std::size_t k = 0; k < m.cache.size(); ++k)
    os << (k ? "," : "") << m.cache[k];
  os << "|bw=";
  for (std::size_t k = 0; k < m.bw.size(); ++k)
    os << (k ? "," : "") << m.bw[k];
  os << "|map=";
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    if (k) os << ";";
    for (std::size_t i = 0; i < m.vcpus_on_core[k].size(); ++i)
      os << (i ? "," : "") << m.vcpus_on_core[k][i];
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(vcpu_hash(res.vcpus)));
  os << "|vhash=" << hex;
  return os.str();
}

std::string text_digest(const std::string& text) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(text)));
  return hex;
}

}  // namespace vc2m::scenario
