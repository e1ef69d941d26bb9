// Self-tests of the benchmark's own arithmetic: span self time on a
// hand-built span tree, percentile extraction against a sorted oracle, and
// fail_ratio accounting on a deliberately unbalanced ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void span_self_time() {
  using perfbench::Span;
  // phase [0,100] -> run [10,90] -> two workers [20,60] and [40,80] that
  // overlap (parallel threads), each with one op; plus a child that sticks
  // out of its parent [85,95] and is clipped to run's end at 90.
  const std::vector<Span> spans = {
      {1, 0, "phase", 0, 100, 0},  {2, 1, "run", 10, 90, 0},
      {3, 2, "worker", 20, 60, 1}, {4, 2, "worker", 40, 80, 2},
      {5, 3, "op", 30, 35, 1},     {6, 4, "op", 50, 70, 2},
      {7, 2, "late", 85, 95, 0},
  };
  const auto t = perfbench::self_times(spans);
  expect(near(t.at("phase").self_ns, 20), "phase self = 100 - 80");
  // run covers [20,80] by workers and [85,90] by the clipped child: 65.
  expect(near(t.at("run").self_ns, 15), "run self = 80 - 65");
  expect(near(t.at("worker").self_ns, 35 + 20), "workers self = 35 + 20");
  expect(t.at("worker").count == 2, "two worker spans");
  expect(near(t.at("worker").total_ns, 80), "workers total = 40 + 40");
  expect(near(t.at("op").self_ns, 25), "ops are leaves");
  expect(near(t.at("late").self_ns, 10), "late has no children");
}

void percentiles() {
  std::vector<double> v;
  std::uint64_t x = 12345;
  for (int i = 0; i < 1001; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<double>(x >> 40) + (i % 7 == 0 ? 5e6 : 0));
  }
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Nearest rank: the ceil(q*n)-th smallest sample, at least the first.
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * n)));
    std::vector<double> w = v;
    expect(perfbench::percentile(w, q) == sorted[rank - 1],
           "percentile matches the sorted oracle");
  }
  std::vector<double> empty;
  expect(perfbench::percentile(empty, 0.5) == 0, "empty percentile is 0");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
}

void fail_ratio() {
  using perfbench::PhaseLedger;
  PhaseLedger clean{1000, 1000, 500, 500, true, true};
  PhaseLedger lost{1000, 990, 500, 500, true, true};     // 10 not completed
  PhaseLedger surplus{1000, 1000, 500, 507, true, true};  // 7 too many keys
  PhaseLedger deficit{1000, 1000, 500, 497, true, true};  // 3 keys missing
  PhaseLedger broken{1000, 1000, 500, 500, false, true};  // invariant failed
  PhaseLedger diverged{1000, 1000, 500, 500, true, false};  // not replayable
  PhaseLedger huge{10, 10, 500, 0, true, true};  // deficit beyond attempts
  expect(perfbench::failed_ops(clean) == 0, "clean phase");
  expect(perfbench::failed_ops(lost) == 10, "ops not completed");
  expect(perfbench::failed_ops(surplus) == 7, "surplus counts");
  expect(perfbench::failed_ops(deficit) == 3, "deficit counts");
  expect(perfbench::failed_ops(broken) == 1000, "invariant fails all");
  expect(perfbench::failed_ops(diverged) == 1000, "divergence fails all");
  expect(perfbench::failed_ops(huge) == 10, "capped at attempted");
  expect(near(perfbench::fail_ratio({clean, lost, surplus, deficit}),
              20.0 / 4000.0),
         "ratio over phases");
  expect(perfbench::fail_ratio({}) == 0, "no phases");
}

}  // namespace

int main() {
  span_self_time();
  percentiles();
  fail_ratio();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
