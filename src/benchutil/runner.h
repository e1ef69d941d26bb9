// Bench runners: thread sweeps, trial loops, the one bench-point bracket,
// and the environment knobs shared by every figure binary.
//
//   PTO_BENCH_OPS    operations per thread per trial (default 6000)
//   PTO_BENCH_TRIALS trials per point (default 3; the sim is deterministic,
//                    so only the seeds differ between simulated trials)
//   PTO_BENCH_MAXT   maximum thread count in sweeps (default 8, capped at
//                    the simulator limit of 1024 virtual threads)
//   PTO_BENCH_SWEEP  sweep density: "dense" (every count 1..MAXT, default)
//                    or "geom" (1, 2, 4, ... doubling, plus MAXT) — the only
//                    practical shape for MAXT in the hundreds, where a dense
//                    sweep is MAXT simulations per series
//
// With PTO_STATS=json each measured point additionally emits a structured
// record (telemetry/emit.h) carrying the full abort/fallback breakdown
// alongside the throughput. run_variant is the simulated runner;
// benchutil/native_runner.h is its wall-clock counterpart. Both open and
// close every point with PointBracket, and both count a trial's prefix
// events around its measured run only.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/series.h"
#include "core/prefix.h"
#include "sim/sim.h"
#include "telemetry/emit.h"

namespace pto::bench {

struct RunnerOptions {
  std::uint64_t ops_per_thread = 6'000;
  unsigned trials = 3;  // deterministic sim: seeds differ, variance is tiny
  unsigned max_threads = 8;
  bool geometric_sweep = false;  // PTO_BENCH_SWEEP=geom
  std::uint64_t base_seed = 42;

  /// Apply PTO_BENCH_* environment overrides.
  static RunnerOptions from_env();
};

/// Thread counts for a sweep: 1..max_threads dense, or doubling
/// (1, 2, 4, ..., plus max_threads itself) when geometric_sweep is set.
std::vector<int> sweep_threads(const RunnerOptions& opts);

/// The one bench-point bracket: every measured point opens one and closes
/// it once its trials have run.
///
/// Opening sets the profiler scope "bench/series" and stamps the point's
/// host: its CPU count and HTM backend ("simx" on a virtual point, which
/// never probes the native backend); a wall-clock point also resets latency.
/// Last, metrics::point_begin labels the metrics stream and, on a wall-clock
/// point, starts the sampler, which re-baselines latency and so must follow
/// the reset. Each trial's registry delta is taken around its measured run
/// (trial_start() / add_trial()), so fixture setup and teardown stay out of
/// the point. Closing stops the sampler, which emits the trailing interval,
/// fills in latency, timestamps and interval count, and emits the BenchPoint
/// (with PTO_STATS set).
class PointBracket {
 public:
  enum class Clock { kVirtual, kWall };

  PointBracket(const std::string& bench, const std::string& series,
               unsigned threads, Clock clock);
  PointBracket(const PointBracket&) = delete;
  PointBracket& operator=(const PointBracket&) = delete;

  /// The registry totals one trial starts from: take them just before its
  /// measured run (sim::run or Runtime::run) and pass them to add_trial just
  /// after it.
  PrefixStats trial_start() const;

  /// Count one trial, a simulated run or `ops` completed wall-clock ops,
  /// with the prefix events counted since `start`.
  void add_trial(const sim::RunResult& res, const PrefixStats& start);
  void add_trial(std::uint64_t ops, const PrefixStats& start);

  /// Close the point, reporting `ops_per_ms` as its throughput.
  void close(double ops_per_ms);

 private:
  void add_prefix(const PrefixStats& start);

  telemetry::BenchPoint pt_;
  bool wall_;
  bool emit_;
};

/// `base` for one simulated trial: workload seed `seed`, and under
/// PTO_SCHED=pct|rand a schedule seed derived from the resolved policy and
/// `salt`, so every trial explores a distinct interleaving while a sweep
/// stays a pure function of (options, env). Other policies keep `base`'s.
sim::Config trial_config(const sim::Config& base, std::uint64_t seed,
                         std::uint64_t salt);

/// One variant of one simulated benchmark: a series of `fig` with one point
/// per thread count in fig.xs, each the mean throughput over opts.trials
/// trials. Every trial gets a fresh fixture, sequential prefill on the
/// host, the measured multi-threaded simulation, then teardown and an arena
/// reset.
///
/// `factory()` allocates a fixture; the fixture must provide:
///   void prefill(std::uint64_t seed);
///   void thread_body(unsigned tid, std::uint64_t ops);  // calls op_done
template <class Fixture>
void run_variant(Figure& fig, const RunnerOptions& opts,
                 const sim::Config& base_cfg, const std::string& name,
                 const std::function<Fixture*()>& factory) {
  Series& s = fig.add_series(name);
  for (int threads : fig.xs) {
    const auto n = static_cast<unsigned>(threads);
    PointBracket point(fig.id, name, n, PointBracket::Clock::kVirtual);
    double sum = 0.0;
    for (unsigned trial = 0; trial < opts.trials; ++trial) {
      const sim::Config cfg = trial_config(
          base_cfg, opts.base_seed + 7919ull * trial + 131ull * n,
          1000003ull * trial + n);
      Fixture* f = factory();
      f->prefill(cfg.seed ^ 0xABCDEF);
      const PrefixStats start = point.trial_start();
      auto res = sim::run(n, cfg, [&](unsigned tid) {
        f->thread_body(tid, opts.ops_per_thread);
      });
      point.add_trial(res, start);
      sum += res.ops_per_msec();
      delete f;
      sim::reset_memory();
    }
    s.y.push_back(sum / opts.trials);
    point.close(s.y.back());
    std::cerr << "  " << name << " t=" << threads << " done\r" << std::flush;
  }
  std::cerr << "                                        \r";
}

}  // namespace pto::bench
