#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  if (rank == 0) rank = 1;
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::uint64_t failed_ops(const PhaseLedger& p) {
  if (!p.invariants_ok || !p.deterministic) return p.attempted;
  const std::uint64_t lost =
      p.completed < p.attempted ? p.attempted - p.completed : 0;
  const std::int64_t d = p.expected_size - p.actual_size;
  const std::uint64_t deficit = static_cast<std::uint64_t>(d < 0 ? -d : d);
  return std::min(p.attempted, lost + deficit);
}

double fail_ratio(const std::vector<PhaseLedger>& phases) {
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  for (const PhaseLedger& p : phases) {
    failed += failed_ops(p);
    attempted += p.attempted;
  }
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
