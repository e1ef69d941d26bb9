// Native (std::thread) bench runner: the real-hardware counterpart of
// benchutil/runner.h's simulated run_variant, and the reporting surface for
// the pto::obs stack. Reuses the same RunnerOptions / PTO_BENCH_* knobs and
// the same PointBracket.
//
// Differences from the simulated runner, both deliberate:
//   * Throughput is wall-clock (service::Runtime::run's spin-barrier start
//     to the last worker's finish), and the reported figure is the BEST
//     trial, not the mean — native runs share the machine with the OS, and
//     best-of is the standard de-noising for small trial counts (the
//     per-trial spread is visible in the latency histograms instead).
//   * With PTO_OBS=1, per-op latency percentiles (recorded by the fixture
//     through obs::OpTimer) are merged per point and attached to the emitted
//     BenchPoint. Histograms are reset at each point boundary.
//
// Like run_variant, a point counts only its trials' measured runs: the
// fixture built by `make_fixture` (a prefill, say) stays out of its prefix
// counts.
#pragma once

#include <functional>
#include <string>

#include "benchutil/runner.h"
#include "service/runtime.h"

namespace pto::bench {

/// One measured native point: run `body(tid, ops)` on each of `rt`'s
/// workers per trial and return the best trial's throughput in ops/ms.
/// `make_fixture` runs before each trial on the calling thread and returns
/// the per-thread body (which records per-op latency itself via
/// obs::OpTimer when armed).
double native_measure_point(
    const RunnerOptions& opts, service::Runtime& rt,
    const std::function<std::function<void(unsigned, std::uint64_t)>()>&
        make_fixture,
    const std::string& bench, const std::string& series);

}  // namespace pto::bench
