// Ablation (extension, paper §5/§7): the PTO-friendly redesign.
//
// PTOArraySet is built the way the paper's conclusion recommends — an
// unencumbered transactional fast path over a deliberately naive nonblocking
// slow path. Compared against the freezable-set hash table (a conventional
// design retrofitted with PTO) on a small hot set, the purpose-built
// structure should win at low thread counts (nothing but plain stores on
// the fast path) but, being one centralized array, every concurrent update
// conflicts — it serializes as threads grow while the hash table's
// per-bucket parallelism scales. This is §5's own precondition made
// visible: the sweet spot exists "if the prefix succeeds with high
// probability", i.e. under low contention.
#include <iostream>

#include "bench_util.h"
#include "platform/sim_platform.h"
#include "service/adapters.h"

namespace {

using pto::SimPlatform;
namespace pb = pto::bench;
namespace svc = pto::service;

constexpr int kRange = 32;  // a small hot set (routing/watch lists)
constexpr unsigned kLookup = 60;

}  // namespace

int main() {
  auto opts = pb::RunnerOptions::from_env();
  using Hash = svc::HashAdapter<SimPlatform>;
  using Array = svc::ArraySetAdapter<SimPlatform>;
  const Hash hash_lf{Hash::Mode::kLockfree};
  pb::Figure fig;
  fig.id = "abl_ptoset";
  fig.title = "Small hot set (range 32, 60% lookups): purpose-built vs "
              "retrofitted";
  fig.xs = pb::sweep_threads(opts);

  pb::run_set(fig, opts, "Hash(Lockfree)", hash_lf, hash_lf, kRange,
              kLookup);
  pb::run_set(fig, opts, "Hash(PTO+Inplace)", Hash{Hash::Mode::kPtoInplace},
              hash_lf, kRange, kLookup);
  // One variant: the prefill runs through the PTO fast path too.
  pb::run_set(fig, opts, "PTOArraySet", Array{}, Array{}, kRange, kLookup);
  pb::finish(fig, "abl_ptoset.csv");

  pb::shape_note(std::cout, "PTOArraySet/Hash(LF) @1T",
                 fig.ratio_at("PTOArraySet", "Hash(Lockfree)", 1),
                 ">1: the PTO-first design pays (paper §5/§7)");
  pb::shape_note(std::cout, "PTOArraySet/Hash(Inplace) @1T",
                 fig.ratio_at("PTOArraySet", "Hash(PTO+Inplace)", 1),
                 "~1: both run one small transaction per op");
  int maxt = fig.xs.back();
  pb::shape_note(std::cout, "PTOArraySet/Hash(Inplace) @maxT",
                 fig.ratio_at("PTOArraySet", "Hash(PTO+Inplace)", maxt),
                 "<1: a centralized array serializes under contention");
  return 0;
}
