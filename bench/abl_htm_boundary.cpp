// Ablation: HTM boundary cost sweep (paper §7, "Future Directions": "we
// hope hardware designers will ... reduce the latency of HTM boundary
// operations. As HTM becomes cheaper, PTO will become even more profitable,
// especially for DCAS replacement").
//
// Sweeps tx_begin+tx_commit from 0 to 4x the calibrated Haswell value and
// reports the Mound(PTO)/Mound(Lockfree) single-thread ratio — DCAS
// replacement being the paper's pointed example.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "ds/mound/mound.h"
#include "platform/sim_platform.h"

namespace {

using pto::Mound;
using pto::SimPlatform;
namespace pb = pto::bench;

/// One point: the mean ops/ms of opts.trials single-thread runs, emitted as
/// series `label`.
double measure(bool use_pto, const pto::sim::Config& cfg,
               const pb::RunnerOptions& opts, const std::string& label) {
  pb::PointBracket point("abl_htm_boundary", label, 1,
                         pb::PointBracket::Clock::kVirtual);
  double sum = 0;
  for (unsigned t = 0; t < opts.trials; ++t) {
    pto::sim::Config c = cfg;
    c.seed = 7 + t;
    Mound<SimPlatform> q(16);
    {
      auto ctx = q.make_ctx();
      pto::SplitMix64 rng(c.seed);
      for (int i = 0; i < 512; ++i) {
        q.insert_lf(ctx, static_cast<std::int32_t>(rng.next_below(1 << 20)));
      }
    }
    const pto::PrefixStats start = point.trial_start();
    auto res = pto::sim::run(1, c, [&](unsigned) {
      auto ctx = q.make_ctx();
      for (std::uint64_t i = 0; i < opts.ops_per_thread; ++i) {
        if (pto::sim::rnd() % 2 == 0) {
          auto v = static_cast<std::int32_t>(pto::sim::rnd() % (1 << 20));
          if (use_pto) {
            q.insert_pto(ctx, v);
          } else {
            q.insert_lf(ctx, v);
          }
        } else {
          if (use_pto) {
            q.extract_min_pto(ctx);
          } else {
            q.extract_min_lf(ctx);
          }
        }
        pto::sim::op_done();
      }
    });
    point.add_trial(res, start);
    sum += res.ops_per_msec();
  }
  pto::sim::reset_memory();
  point.close(sum / opts.trials);
  return sum / opts.trials;
}

}  // namespace

int main() {
  auto opts = pb::RunnerOptions::from_env();
  pb::Figure fig;
  fig.id = "abl_htm_boundary";
  fig.title = "Mound PTO/LF speedup vs HTM boundary cost (1 thread)";
  fig.ylabel = "PTO/LF throughput ratio";
  // x = total boundary cycles (begin + commit).
  fig.xs = {0, 11, 22, 45, 90, 180};

  pto::sim::Config base;
  const double lf = measure(false, base, opts, "Mound(Lockfree)");
  auto& s = fig.add_series("Mound PTO/LF");
  for (int boundary : fig.xs) {
    pto::sim::Config cfg = base;
    cfg.cost.tx_begin = static_cast<std::uint64_t>(boundary) * 5 / 9;
    cfg.cost.tx_commit = static_cast<std::uint64_t>(boundary) * 4 / 9;
    s.y.push_back(measure(true, cfg, opts,
                          "Mound(PTO) boundary=" + std::to_string(boundary)) /
                  lf);
  }
  std::cout << "(x axis = tx_begin+tx_commit cycles; calibrated default 45)\n";
  pb::finish(fig, "abl_htm_boundary.csv");
  pb::shape_note(std::cout, "speedup at free boundaries / at 4x cost",
                 s.y.front() / s.y.back(),
                 ">1: cheaper HTM boundaries make PTO more profitable");
  return 0;
}
