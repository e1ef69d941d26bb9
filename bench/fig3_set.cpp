// Figure 3(a–c): logarithmic search data structure microbenchmark
// (setbench, key range 512, lookup ratio 0% / 34% / 100%).
//
// Series: Ellen BST (lock-free vs PTO1+PTO2) and skiplist (lock-free vs
// PTO). Paper claims: the accelerated BST matches the skiplist's scalability
// at lower latency (crossing above it), while skiplist PTO gains ~nothing.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "platform/sim_platform.h"
#include "service/adapters.h"

namespace {

using pto::SimPlatform;
namespace pb = pto::bench;
namespace svc = pto::service;

constexpr int kRange = 512;

void run_subfigure(const char* id, unsigned lookup_pct) {
  auto opts = pb::RunnerOptions::from_env();
  pb::Figure fig;
  fig.id = id;
  fig.title = "Set Microbenchmark (Lookup=" + std::to_string(lookup_pct) +
              "% Range=512)";
  fig.xs = pb::sweep_threads(opts);
  using Tree = svc::BstAdapter<SimPlatform>;
  using Skip = svc::SkipAdapter<SimPlatform>;
  const Tree tree_lf{Tree::Mode::kLockfree};
  const Skip skip_lf{false};

  pb::run_set(fig, opts, "Tree(Lockfree)", tree_lf, tree_lf, kRange,
              lookup_pct);
  pb::run_set(fig, opts, "Tree(PTO)", Tree{Tree::Mode::kPto12}, tree_lf,
              kRange, lookup_pct);
  pb::run_set(fig, opts, "Skip(Lockfree)", skip_lf, skip_lf, kRange,
              lookup_pct);
  pb::run_set(fig, opts, "Skip(PTO)", Skip{true}, skip_lf, kRange,
              lookup_pct);
  pb::finish(fig, std::string(id) + ".csv");

  pb::shape_note(std::cout, "Tree PTO/LF @1T",
                 fig.ratio_at("Tree(PTO)", "Tree(Lockfree)", 1),
                 ">1 (PTO1 dominates at low threads)");
  int maxt = fig.xs.back();
  pb::shape_note(std::cout, "Tree PTO/LF @maxT",
                 fig.ratio_at("Tree(PTO)", "Tree(Lockfree)", maxt),
                 ">1 (PTO2 keeps the win under contention)");
  pb::shape_note(std::cout, "TreePTO/SkipPTO @maxT",
                 fig.ratio_at("Tree(PTO)", "Skip(PTO)", maxt),
                 ">1: accelerated BST outruns the skiplist");
  pb::shape_note(std::cout, "Skip PTO/LF @1T",
                 fig.ratio_at("Skip(PTO)", "Skip(Lockfree)", 1),
                 "~1: skiplist barely improves");
  std::cout << "\n";
}

}  // namespace

int main() {
  run_subfigure("fig3a", 0);
  run_subfigure("fig3b", 34);
  run_subfigure("fig3c", 100);
  return 0;
}
