// Ellen et al. BST: model checks and deterministic concurrent consistency
// for the lock-free baseline and all three PTO variants, plus cross-variant
// interoperability (PTO transactions against fallback descriptors) and the
// dummy-descriptor poisoning behaviour.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ds/bst/ellen_bst.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "set_test_util.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::EllenBST;
using pto::SimPlatform;

using Tree = pto::service::BstAdapter<SimPlatform>;
using Mode = Tree::Mode;

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kLockfree: return "lf";
    case Mode::kPto1: return "pto1";
    case Mode::kPto2: return "pto2";
    default: return "pto12";
  }
}

class BstSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(BstSequential, MatchesStdSet) {
  EllenBST<SimPlatform> ds;
  pto::testutil::sequential_model_check(ds, Tree{GetParam()}, 256, 4000, 21);
}

INSTANTIATE_TEST_SUITE_P(Modes, BstSequential,
                         ::testing::Values(Mode::kLockfree, Mode::kPto1,
                                           Mode::kPto2, Mode::kPto12),
                         [](const auto& i) { return mode_name(i.param); });

class BstConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(BstConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  EllenBST<SimPlatform> ds;
  pto::testutil::concurrent_consistency(ds, Tree{mode},
                                        static_cast<unsigned>(threads), range,
                                        400, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BstConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLockfree, Mode::kPto1,
                                         Mode::kPto2, Mode::kPto12),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(16, 512),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(Bst, AllModesInteroperateOnSharedKeys) {
  // Thread t uses mode t%4; high contention on 32 keys. This exercises PTO
  // transactions racing fallback descriptors, helping, and the dummy mark.
  EllenBST<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.seed = 77;
  pto::testutil::mixed_consistency(
      ds, Tree{Mode::kLockfree},
      [](unsigned tid) { return Tree{static_cast<Mode>(tid % 4)}; }, 8, 32,
      300, cfg);
}

TEST(Bst, Pto1CommitsEliminateDescriptorAllocation) {
  // Single-threaded PTO1: every operation commits; no Info descriptors and
  // no flag CASes should appear.
  EllenBST<SimPlatform> ds;
  pto::sim::RunResult baseline, accelerated;
  {
    EllenBST<SimPlatform> b;
    baseline = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = b.make_ctx();
      for (int i = 0; i < 300; ++i) {
        b.insert(ctx, i % 64, Mode::kLockfree);
        b.remove(ctx, i % 64, Mode::kLockfree);
      }
    });
  }
  SiteDelta ins("bst.insert.pto1");
  SiteDelta rem("bst.remove.pto1");
  accelerated = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < 300; ++i) {
      ds.insert(ctx, i % 64, Mode::kPto1);
      ds.remove(ctx, i % 64, Mode::kPto1);
    }
    EXPECT_EQ(ins.get().fallbacks + rem.get().fallbacks, 0u);
  });
  // LF allocates an Info per update; PTO1 does not (only node shells).
  EXPECT_LT(accelerated.totals().allocs, baseline.totals().allocs);
  // PTO1 issues no CAS itself; the residue comes from epoch bookkeeping.
  EXPECT_LE(accelerated.totals().cas_ops, 64u);
  EXPECT_GT(baseline.totals().cas_ops, 500u);
}

TEST(Bst, Pto1FailureInjectionFallsBackCorrectly) {
  EllenBST<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 0.3;  // partial failure: mixed paths
  cfg.seed = 9;
  pto::testutil::mixed_consistency(
      ds, Tree{Mode::kLockfree}, [](unsigned) { return Tree{Mode::kPto12}; },
      4, 64, 300, cfg);
}

TEST(Bst, NativePlatformAllModes) {
  using NativeTree = pto::service::BstAdapter<pto::NativePlatform>;
  for (auto m : {NativeTree::Mode::kLockfree, NativeTree::Mode::kPto1,
                 NativeTree::Mode::kPto2, NativeTree::Mode::kPto12}) {
    EllenBST<pto::NativePlatform> ds;
    pto::testutil::sequential_model_check(ds, NativeTree{m}, 128, 1500,
                                          static_cast<int>(m) + 40);
  }
}

}  // namespace
