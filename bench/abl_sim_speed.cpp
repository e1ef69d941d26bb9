// Simulator self-benchmark: host wall-clock throughput of the simx hot path
// (instrumented accesses -> charge/yield -> line table -> fiber switches) at
// 1/8/32/64/256/1024 virtual threads. This measures the *simulator*, not a simulated
// data structure: every figure and ablation in the repo executes through this
// path, so host ops/sec here bounds how many scenarios, thread counts, and
// trials a sweep can explore.
//
// Output: a human table on stdout plus BENCH_sim.json (one JSON object with
// one point per thread count), which tools/speedgate.py sim reads.
//
//   PTO_SIM_SPEED_OPS     total benchmark ops across all virtual threads per
//                         point (default 1'000'000)
//   PTO_SIM_SPEED_REPS    wall-clock repetitions per point, best taken
//                         (default 3)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "common/defs.h"
#include "common/env.h"
#include "core/prefix.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"

namespace {

using pto::Atom;
using pto::CacheAligned;
using pto::SimPlatform;
namespace sim = pto::sim;

constexpr unsigned kCells = 1024;  // one cache line each

struct Point {
  unsigned vthreads;
  std::uint64_t total_ops;
  std::uint64_t accesses;      ///< instrumented accesses (loads+stores+CAS+RMW)
  std::uint64_t sim_makespan;  ///< simulated cycles (determinism witness)
  double wall_s;               ///< best-of-reps wall time
  double host_ops_per_sec;
  double host_accesses_per_sec;
};

/// One simulated run: a mixed read/write/tx workload over a shared array,
/// shaped like the figure benches (random cells, op_done, a prefix
/// transaction every 8th op) so the hot-path mix is representative.
sim::RunResult run_once(unsigned vthreads, std::uint64_t ops_per_thread,
                        std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>>& cells) {
  sim::Config cfg;
  cfg.seed = 12345;
  return sim::run(vthreads, cfg, [&](unsigned) {
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
      auto a = static_cast<unsigned>(sim::rnd() % kCells);
      auto b = static_cast<unsigned>(sim::rnd() % kCells);
      if (i % 8 == 0) {
        pto::prefix<SimPlatform>(
            1,
            [&] {
              auto v = cells[a].value.load(std::memory_order_relaxed);
              cells[b].value.store(v + 1, std::memory_order_relaxed);
            },
            [&] { cells[b].value.fetch_add(1, std::memory_order_relaxed); });
      } else if (i % 4 == 0) {
        cells[a].value.store(i, std::memory_order_relaxed);
      } else {
        (void)cells[a].value.load(std::memory_order_relaxed);
      }
      sim::op_done();
    }
  });
}

Point measure(unsigned vthreads, std::uint64_t total_ops, unsigned reps) {
  std::uint64_t ops_per_thread = std::max<std::uint64_t>(1, total_ops / vthreads);
  Point p{};
  p.vthreads = vthreads;
  p.total_ops = ops_per_thread * vthreads;
  p.wall_s = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    sim::reset_memory();
    std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(kCells);
    for (auto& c : cells) c.value.init(0);
    auto t0 = std::chrono::steady_clock::now();
    auto res = run_once(vthreads, ops_per_thread, cells);
    auto t1 = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(t1 - t0).count();
    auto tot = res.totals();
    p.accesses = tot.loads + tot.stores + tot.cas_ops + tot.rmws;
    p.sim_makespan = res.makespan();
    p.wall_s = std::min(p.wall_s, s);
  }
  p.host_ops_per_sec = static_cast<double>(p.total_ops) / p.wall_s;
  p.host_accesses_per_sec = static_cast<double>(p.accesses) / p.wall_s;
  return p;
}

}  // namespace

int main() {
  const std::uint64_t total_ops =
      pto::env::u64("PTO_SIM_SPEED_OPS", 1'000'000);
  const unsigned reps =
      static_cast<unsigned>(pto::env::u64("PTO_SIM_SPEED_REPS", 3, 1, ~0u));
  // 256 and 1024 exercise the multi-word ThreadSet path and the widened
  // dispatcher. tools/speedgate.py sim compares every count against the
  // merge-base's build and checks the tail past 64 for linear-in-N cost.
  const unsigned counts[] = {1, 8, 32, 64, 256, 1024};

  std::vector<Point> points;
  std::printf("abl_sim_speed: simx host throughput (%llu ops/point, best of %u)\n",
              static_cast<unsigned long long>(total_ops), reps);
  std::printf("%8s %12s %14s %10s %16s %16s\n", "vthreads", "ops", "accesses",
              "wall_s", "host_ops/s", "host_accesses/s");
  for (unsigned t : counts) {
    Point p = measure(t, total_ops, reps);
    points.push_back(p);
    std::printf("%8u %12llu %14llu %10.4f %16.0f %16.0f\n", p.vthreads,
                static_cast<unsigned long long>(p.total_ops),
                static_cast<unsigned long long>(p.accesses), p.wall_s,
                p.host_ops_per_sec, p.host_accesses_per_sec);
  }

  std::ofstream json("BENCH_sim.json");
  json << "{\"bench\":\"abl_sim_speed\",\"total_ops\":" << total_ops
       << ",\"reps\":" << reps << ",\"fast_fiber\":"
#if PTO_FAST_FIBER
       << "true"
#else
       << "false"
#endif
       << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json << (i ? "," : "") << "{\"vthreads\":" << p.vthreads
         << ",\"ops\":" << p.total_ops << ",\"accesses\":" << p.accesses
         << ",\"sim_makespan\":" << p.sim_makespan << ",\"wall_s\":" << p.wall_s
         << ",\"host_ops_per_sec\":" << p.host_ops_per_sec
         << ",\"host_accesses_per_sec\":" << p.host_accesses_per_sec << "}";
  }
  json << "]}\n";
  std::printf("JSON written to BENCH_sim.json\n");
  return 0;
}
