// Shared driving code for the figure-reproduction binaries.
//
// Every figure binary sweeps thread counts 1..8 (paper hardware: i7-4770,
// 8 hardware threads) on the simulated multicore through
// pto::bench::run_variant (benchutil/runner.h), averages PTO_BENCH_TRIALS
// trials per point (paper: 5 trials), prints the figure as a table, writes a
// CSV next to the binary, and emits [shape] lines comparing the measured
// ratios with the paper's qualitative claims (recorded in EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "benchutil/runner.h"
#include "benchutil/series.h"
#include "common/rng.h"
#include "sim/sim.h"

namespace pto::bench {

inline void finish(Figure& fig, const std::string& csv_name) {
  fig.print(std::cout);
  fig.write_csv(csv_name);
  std::cout << "CSV written to " << csv_name << "\n";
}

/// The setbench loop of the paper's set figures over one set, driven through
/// service adapters (service/adapters.h). The prefill makes range/2 inserts
/// through `fill` (the lock-free variant) of keys drawn from
/// SplitMix64(seed). Each measured op draws a key below `range`, then a 0-99
/// coin: below `lookup` a get, below lookup + (100 - lookup)/2 a put, else a
/// del, all through `variant`.
template <class A>
struct SetFixture {
  SetFixture(A variant_, A fill_, int range_, unsigned lookup_)
      : variant(variant_), fill(fill_), range(range_), lookup(lookup_) {}
  A variant;
  A fill;
  int range;
  unsigned lookup;
  typename A::DS set;

  void prefill(std::uint64_t seed) {
    auto ctx = set.make_ctx();
    SplitMix64 rng(seed);
    for (int i = 0; i < range / 2; ++i) {
      fill.put(set, ctx, static_cast<std::int64_t>(rng.next_below(range)));
    }
  }

  void thread_body(unsigned, std::uint64_t ops) {
    auto ctx = set.make_ctx();
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % range);
      auto c = static_cast<unsigned>(sim::rnd() % 100);
      if (c < lookup) {
        variant.get(set, ctx, k);
      } else if (c < lookup + (100 - lookup) / 2) {
        variant.put(set, ctx, k);
      } else {
        variant.del(set, ctx, k);
      }
      sim::op_done();
    }
  }
};

/// One series of `fig`: SetFixture(variant, fill, range, lookup) on the
/// default simulated machine.
template <class A>
void run_set(Figure& fig, const RunnerOptions& opts, const std::string& name,
             A variant, A fill, int range, unsigned lookup) {
  run_variant<SetFixture<A>>(fig, opts, sim::Config{}, name, [=] {
    return new SetFixture<A>(variant, fill, range, lookup);
  });
}

}  // namespace pto::bench
