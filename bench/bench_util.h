// Shared driving code for the figure-reproduction binaries.
//
// Every figure binary sweeps thread counts 1..8 (paper hardware: i7-4770,
// 8 hardware threads) on the simulated multicore through
// pto::bench::run_variant (benchutil/runner.h), averages PTO_BENCH_TRIALS
// trials per point (paper: 5 trials), prints the figure as a table, writes a
// CSV next to the binary, and emits [shape] lines comparing the measured
// ratios with the paper's qualitative claims (recorded in EXPERIMENTS.md).
#pragma once

#include <iostream>
#include <string>

#include "benchutil/runner.h"
#include "benchutil/series.h"
#include "sim/sim.h"

namespace pto::bench {

inline void finish(Figure& fig, const std::string& csv_name) {
  fig.print(std::cout);
  fig.write_csv(csv_name);
  std::cout << "CSV written to " << csv_name << "\n";
}

}  // namespace pto::bench
