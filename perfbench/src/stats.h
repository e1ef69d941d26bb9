// The benchmark's own arithmetic: percentiles, medians and the failure
// ledger. Kept apart from the measuring code so tests/selftest.cpp can check
// each function against a hand-computed oracle.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `v`: the smallest sample with at
/// least q * n samples at or below it. Reorders `v`; 0 when `v` is empty.
double percentile(std::vector<double>& v, double q);

/// Median; the mean of the two middle values for an even count. 0 if empty.
double median(std::vector<double> v);

/// What one measured phase did, and what the output checks found.
struct PhaseLedger {
  std::uint64_t attempted = 0;  ///< ops issued
  std::uint64_t completed = 0;  ///< ops that returned
  std::int64_t expected_size = 0;  ///< size before + puts_ok - dels_ok
  std::int64_t actual_size = 0;    ///< size_slow() after the phase
  bool invariants_ok = true;       ///< check_invariants() on every shard
  bool deterministic = true;       ///< simx: repeats agree bit for bit
};

/// Failed ops of one phase: ops not completed plus the conservation deficit,
/// or every attempted op when an invariant or determinism check failed.
/// Never more than `attempted`.
std::uint64_t failed_ops(const PhaseLedger& p);

/// Sum of failed_ops over `phases` divided by the ops they attempted.
double fail_ratio(const std::vector<PhaseLedger>& phases);

}  // namespace perfbench
