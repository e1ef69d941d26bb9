// Ablation (extension): key skew vs PTO profitability.
//
// The paper's workloads draw keys uniformly. Under Zipfian skew, hot keys
// concentrate conflicts: PTO's aborted transactions waste whole operations
// while the lock-free baseline's failed CASes waste single steps, so PTO's
// edge should shrink (and can invert) as skew grows — the same §4.6
// contention argument that explains the skiplist result, now swept
// parametrically on the PTO1+PTO2 BST at 8 threads.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "benchutil/zipf.h"
#include "common/rng.h"
#include "ds/bst/ellen_bst.h"
#include "platform/sim_platform.h"

namespace {

using pto::EllenBST;
using pto::SimPlatform;
namespace pb = pto::bench;

constexpr int kRange = 512;

double measure(bool use_pto, double theta, const pb::RunnerOptions& opts,
               unsigned threads) {
  using Mode = EllenBST<SimPlatform>::Mode;
  char label[64];
  std::snprintf(label, sizeof(label), "%s theta=%.2f",
                use_pto ? "BST(PTO1+PTO2)" : "BST(Lockfree)", theta);
  pb::PointBracket point("abl_skew", label, threads,
                         pb::PointBracket::Clock::kVirtual);
  double sum = 0;
  for (unsigned trial = 0; trial < opts.trials; ++trial) {
    pto::sim::Config cfg;
    cfg.seed = 1234 + trial;
    {
      EllenBST<SimPlatform> set;
      pb::ZipfGenerator zipf(kRange, theta);
      {
        auto ctx = set.make_ctx();
        pto::SplitMix64 rng(cfg.seed);
        for (int i = 0; i < kRange / 2; ++i) {
          set.insert(ctx, static_cast<std::int64_t>(rng.next_below(kRange)));
        }
      }
      const pto::PrefixStats start = point.trial_start();
      auto res = pto::sim::run(threads, cfg, [&](unsigned tid) {
        auto ctx = set.make_ctx();
        pto::SplitMix64 rng(cfg.seed * 131 + tid);
        for (std::uint64_t i = 0; i < opts.ops_per_thread; ++i) {
          auto k = static_cast<std::int64_t>(zipf.next(rng));
          Mode m = use_pto ? Mode::kPto12 : Mode::kLockfree;
          if (rng.next_percent() < 50) {
            set.insert(ctx, k, m);
          } else {
            set.remove(ctx, k, m);
          }
          pto::sim::op_done();
        }
      });
      point.add_trial(res, start);
      sum += res.ops_per_msec();
    }
    pto::sim::reset_memory();
  }
  point.close(sum / opts.trials);
  return sum / opts.trials;
}

}  // namespace

int main() {
  auto opts = pb::RunnerOptions::from_env();
  const unsigned threads = opts.max_threads;

  pb::Figure fig;
  fig.id = "abl_skew";
  fig.title = "BST PTO/LF speedup vs Zipf skew (" +
              std::to_string(threads) + " threads)";
  fig.ylabel = "PTO/LF throughput ratio";
  fig.xs = {0, 50, 80, 99, 120};  // theta x100

  auto& s = fig.add_series("BST PTO/LF");
  for (int t100 : fig.xs) {
    double theta = t100 / 100.0;
    double lf = measure(false, theta, opts, threads);
    double pto = measure(true, theta, opts, threads);
    s.y.push_back(pto / lf);
  }
  std::cout << "(x axis = Zipf theta x100; 0 = uniform)\n";
  pb::finish(fig, "abl_skew.csv");
  pb::shape_note(std::cout, "speedup at uniform / at theta=1.2",
                 s.y.front() / s.y.back(),
                 ">=1: skew concentrates conflicts and erodes PTO's edge");
  return 0;
}
