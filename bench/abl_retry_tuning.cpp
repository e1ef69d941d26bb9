// Ablation: prefix-transaction retry thresholds.
//
// The paper reports tuned retry budgets — Mindicator 3 (§3.1), Mound
// DCAS/DCSS 4 (§4.2), BST 2 attempts of PTO1 then 16 of PTO2 (§4.4). This
// bench sweeps the budget at 8 threads and prints where the knee sits, so
// the tuned constants can be checked against the simulator.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "ds/bst/ellen_bst.h"
#include "ds/mindicator/mindicator.h"
#include "platform/sim_platform.h"

namespace {

using pto::EllenBST;
using pto::Mindicator;
using pto::PrefixPolicy;
using pto::SimPlatform;
namespace pb = pto::bench;

struct MindFixture {
  explicit MindFixture(int retries) : pol(retries), mind(64) {}
  PrefixPolicy pol;
  Mindicator<SimPlatform> mind;
  void prefill(std::uint64_t) {}
  void thread_body(unsigned tid, std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; i += 2) {
      auto v = static_cast<std::int32_t>(pto::sim::rnd() % 1'000'000);
      mind.arrive_pto(tid, v, pol);
      mind.depart_pto(tid, pol);
      pto::sim::op_done(2);
    }
  }
};

struct BstFixture {
  explicit BstFixture(int retries) : pol(retries) {
    // Sweep the PTO1 budget; keep the PTO2 stage at the paper's 16.
    set.set_policies(pol, PrefixPolicy(16));
  }
  PrefixPolicy pol;
  EllenBST<SimPlatform> set;
  void prefill(std::uint64_t seed) {
    auto ctx = set.make_ctx();
    pto::SplitMix64 rng(seed);
    for (int i = 0; i < 256; ++i) {
      set.insert(ctx, static_cast<std::int64_t>(rng.next_below(512)));
    }
  }
  void thread_body(unsigned, std::uint64_t ops) {
    auto ctx = set.make_ctx();
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 512);
      // PTO1 with a swept retry budget, falling back to lock-free.
      if (pto::sim::rnd() % 2 == 0) {
        set.insert(ctx, k, EllenBST<SimPlatform>::Mode::kPto12);
      } else {
        set.remove(ctx, k, EllenBST<SimPlatform>::Mode::kPto12);
      }
      pto::sim::op_done();
    }
  }
};

/// One series of `fig`: a point per retry budget in fig.xs, each the mean
/// over opts.trials runs of a fresh Fixture(budget), seeded seed0 + trial.
template <class Fixture>
void sweep_budgets(pb::Figure& fig, const pb::RunnerOptions& opts,
                   unsigned threads, const std::string& name,
                   std::uint64_t seed0) {
  auto& series = fig.add_series(name);
  pto::sim::Config cfg;
  for (int retries : fig.xs) {
    pb::PointBracket point(fig.id, name + " retries=" + std::to_string(retries),
                           threads, pb::PointBracket::Clock::kVirtual);
    double sum = 0;
    for (unsigned t = 0; t < opts.trials; ++t) {
      cfg.seed = seed0 + t;
      auto* f = new Fixture(retries);
      f->prefill(cfg.seed);
      const pto::PrefixStats start = point.trial_start();
      auto res = pto::sim::run(threads, cfg, [&](unsigned tid) {
        f->thread_body(tid, opts.ops_per_thread);
      });
      point.add_trial(res, start);
      sum += res.ops_per_msec();
      delete f;  // the fixture must die before its arena is reset
      pto::sim::reset_memory();
    }
    series.y.push_back(sum / opts.trials);
    point.close(series.y.back());
  }
}

}  // namespace

int main() {
  auto opts = pb::RunnerOptions::from_env();
  const unsigned threads = opts.max_threads;

  pb::Figure fig;
  fig.id = "abl_retry";
  fig.title = "Retry-budget sweep at " + std::to_string(threads) +
              " threads (ops/ms)";
  fig.xs = {1, 2, 3, 4, 6, 8, 12, 16};

  sweep_budgets<MindFixture>(fig, opts, threads, "Mindicator(PTO)", 91);
  sweep_budgets<BstFixture>(fig, opts, threads, "BST(PTO1+PTO2)", 77);

  std::cout << "(x axis = retry budget, not threads)\n";
  pb::finish(fig, "abl_retry.csv");
  return 0;
}
