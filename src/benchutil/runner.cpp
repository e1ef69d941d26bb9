#include "benchutil/runner.h"

#include "common/env.h"
#include "common/warn.h"
#include "explore/explore.h"
#include "htm/htm.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "service/runtime.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"

namespace pto::bench {

RunnerOptions RunnerOptions::from_env() {
  RunnerOptions o;
  o.ops_per_thread = env::u64("PTO_BENCH_OPS", o.ops_per_thread);
  o.trials =
      static_cast<unsigned>(env::u64("PTO_BENCH_TRIALS", o.trials, 1, ~0u));
  o.max_threads =
      static_cast<unsigned>(env::u64("PTO_BENCH_MAXT", o.max_threads, 1, ~0u));
  if (o.max_threads > kMaxThreads) {
    // Passing the clamped value on to sim::run would throw mid-sweep; clamp
    // here with a warning so a fat-fingered sweep still produces data.
    warn_once("env.PTO_BENCH_MAXT.clamp",
              "PTO_BENCH_MAXT=%u exceeds the simulator limit of %u virtual "
              "threads; clamping to %u",
              o.max_threads, kMaxThreads, kMaxThreads);
    o.max_threads = kMaxThreads;
  }
  o.geometric_sweep =
      env::choice("PTO_BENCH_SWEEP", {"dense", "geom"}, 0) == 1;
  return o;
}

std::vector<int> sweep_threads(const RunnerOptions& opts) {
  std::vector<int> xs;
  if (opts.geometric_sweep) {
    for (unsigned t = 1; t <= opts.max_threads; t *= 2) {
      xs.push_back(static_cast<int>(t));
    }
    if (xs.empty() || xs.back() != static_cast<int>(opts.max_threads)) {
      xs.push_back(static_cast<int>(opts.max_threads));
    }
    return xs;
  }
  for (unsigned t = 1; t <= opts.max_threads; ++t) xs.push_back(static_cast<int>(t));
  return xs;
}

PointBracket::PointBracket(const std::string& bench, const std::string& series,
                           unsigned threads, Clock clock)
    : wall_(clock == Clock::kWall),
      emit_(telemetry::stats_format() != telemetry::StatsFormat::kOff) {
  pt_.bench = bench;
  pt_.series = series;
  pt_.threads = threads;
  if (telemetry::prof::on()) telemetry::prof::set_scope(bench + "/" + series);
  if (emit_) {
    pt_.ts_start = telemetry::iso8601_now();
    pt_.nproc = service::Runtime::allowed_cpus();
    pt_.htm_backend = !wall_ ? "simx"
                      : htm::backend() == htm::Backend::kRTM ? "rtm"
                                                             : "soft";
  }
  if (wall_ && obs::hist_on()) obs::reset_latency();
  metrics::point_begin(bench.c_str(), series.c_str(), threads, wall_);
}

PrefixStats PointBracket::trial_start() const {
  return emit_ ? telemetry::registry_totals() : PrefixStats{};
}

void PointBracket::add_prefix(const PrefixStats& start) {
  if (emit_) pt_.prefix.accumulate(telemetry::registry_delta(start));
}

void PointBracket::add_trial(const sim::RunResult& res,
                             const PrefixStats& start) {
  add_prefix(start);
  ++pt_.trials;
  pt_.sim.accumulate(res.totals());
  pt_.makespan += res.makespan();
  for (auto c : res.clocks) pt_.cpu_cycles += c;
}

void PointBracket::add_trial(std::uint64_t ops, const PrefixStats& start) {
  add_prefix(start);
  ++pt_.trials;
  pt_.sim.ops_completed += ops;
}

void PointBracket::close(double ops_per_ms) {
  pt_.intervals = metrics::point_end();
  if (!emit_) return;
  pt_.ops_per_ms = ops_per_ms;
  if (wall_ && obs::hist_on()) {
    const obs::MergedLatency merged = obs::merged_latency(&pt_.lat_sites);
    pt_.lat = merged.all;
    pt_.lat_fast = merged.fast;
    pt_.lat_fallback = merged.fallback;
  }
  pt_.ts_end = telemetry::iso8601_now();
  telemetry::emit_bench_point(pt_);
}

sim::Config trial_config(const sim::Config& base, std::uint64_t seed,
                         std::uint64_t salt) {
  sim::Config cfg = base;
  cfg.seed = seed;
  const explore::Options x = explore::resolved(base.explore);
  if (x.policy == explore::Policy::kPCT ||
      x.policy == explore::Policy::kRandom) {
    cfg.explore = x;
    cfg.explore.seed = explore::derive_seed(x.seed, salt);
  }
  return cfg;
}

}  // namespace pto::bench
