// Figure 4(a–c): hash table microbenchmark
// (setbench, key range 64K, lookup ratio 0% / 80% / 100%).
//
// Series: freezable-set hash table — lock-free CoW, simple PTO (epoch
// elision on lookups), and PTO+Inplace (speculative in-place updates).
// Paper claims: >2x at 8 threads and ~1.8x at one thread for PTO+Inplace on
// the write-only workload (allocation/copy elimination); PTO alone mainly
// helps lookups.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "platform/sim_platform.h"
#include "service/adapters.h"

namespace {

using pto::SimPlatform;
namespace pb = pto::bench;
namespace svc = pto::service;

constexpr int kRange = 64 * 1024;

void run_subfigure(const char* id, unsigned lookup_pct) {
  auto opts = pb::RunnerOptions::from_env();
  pb::Figure fig;
  fig.id = id;
  fig.title = "Hash Table Microbenchmark (Lookup=" +
              std::to_string(lookup_pct) + "% Range=64K)";
  fig.xs = pb::sweep_threads(opts);
  using Hash = svc::HashAdapter<SimPlatform>;
  const Hash lf{Hash::Mode::kLockfree};

  pb::run_set(fig, opts, "Hash(Lockfree)", lf, lf, kRange, lookup_pct);
  pb::run_set(fig, opts, "Hash(PTO)", Hash{Hash::Mode::kPto}, lf, kRange,
              lookup_pct);
  pb::run_set(fig, opts, "Hash(PTO+Inplace)", Hash{Hash::Mode::kPtoInplace},
              lf, kRange, lookup_pct);
  pb::finish(fig, std::string(id) + ".csv");

  int maxt = fig.xs.back();
  pb::shape_note(std::cout, "Inplace/LF @1T",
                 fig.ratio_at("Hash(PTO+Inplace)", "Hash(Lockfree)", 1),
                 lookup_pct == 0 ? "~1.8x on write-only" : ">=1");
  pb::shape_note(std::cout, "Inplace/LF @maxT",
                 fig.ratio_at("Hash(PTO+Inplace)", "Hash(Lockfree)", maxt),
                 lookup_pct == 0 ? ">2x on write-only" : ">=1");
  pb::shape_note(std::cout, "PTO/LF @1T",
                 fig.ratio_at("Hash(PTO)", "Hash(Lockfree)", 1),
                 lookup_pct >= 80 ? ">1: epoch elision on lookups"
                                  : "~1: CoW cost dominates updates");
  std::cout << "\n";
}

}  // namespace

int main() {
  run_subfigure("fig4a", 0);
  run_subfigure("fig4b", 80);
  run_subfigure("fig4c", 100);
  return 0;
}
