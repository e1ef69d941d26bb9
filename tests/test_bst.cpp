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

template <class P>
using Mode = typename EllenBST<P>::Mode;

const char* mode_name(Mode<SimPlatform> m) {
  switch (m) {
    case Mode<SimPlatform>::kLockfree: return "lf";
    case Mode<SimPlatform>::kPto1: return "pto1";
    case Mode<SimPlatform>::kPto2: return "pto2";
    default: return "pto12";
  }
}

template <class P>
struct BstAdapter {
  using Mode = typename EllenBST<P>::Mode;
  using Ctx = typename EllenBST<P>::ThreadCtx;
  EllenBST<P> ds;

  Ctx make_ctx() { return ds.make_ctx(); }
  bool insert(Ctx& c, Mode m, std::int64_t k) { return ds.insert(c, k, m); }
  bool remove(Ctx& c, Mode m, std::int64_t k) { return ds.remove(c, k, m); }
  bool contains(Ctx& c, Mode m, std::int64_t k) {
    return ds.contains(c, k, m);
  }
  bool check_invariants() { return ds.check_invariants(); }
  std::size_t size_slow() { return ds.size_slow(); }
};

class BstSequential : public ::testing::TestWithParam<Mode<SimPlatform>> {};

TEST_P(BstSequential, MatchesStdSet) {
  BstAdapter<SimPlatform> a;
  pto::testutil::sequential_model_check(a, GetParam(), 256, 4000, 21);
}

INSTANTIATE_TEST_SUITE_P(Modes, BstSequential,
                         ::testing::Values(Mode<SimPlatform>::kLockfree,
                                           Mode<SimPlatform>::kPto1,
                                           Mode<SimPlatform>::kPto2,
                                           Mode<SimPlatform>::kPto12),
                         [](const auto& i) { return mode_name(i.param); });

class BstConcurrent : public ::testing::TestWithParam<
                          std::tuple<Mode<SimPlatform>, int, int, int>> {};

TEST_P(BstConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  BstAdapter<SimPlatform> a;
  pto::testutil::concurrent_consistency(a, mode,
                                        static_cast<unsigned>(threads), range,
                                        400, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BstConcurrent,
    ::testing::Combine(::testing::Values(Mode<SimPlatform>::kLockfree,
                                         Mode<SimPlatform>::kPto1,
                                         Mode<SimPlatform>::kPto2,
                                         Mode<SimPlatform>::kPto12),
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
  BstAdapter<SimPlatform> a;
  constexpr int kRange = 32;
  std::vector<std::vector<int>> net(8, std::vector<int>(kRange, 0));
  pto::sim::Config cfg;
  cfg.seed = 77;
  auto res = pto::sim::run(8, cfg, [&](unsigned tid) {
    auto ctx = a.make_ctx();
    auto m = static_cast<Mode<SimPlatform>>(tid % 4);
    for (int i = 0; i < 300; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % kRange);
      if (pto::sim::rnd() % 2 == 0) {
        if (a.insert(ctx, m, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.remove(ctx, m, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = a.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(a.contains(ctx, Mode<SimPlatform>::kLockfree, k), total == 1)
        << "key " << k;
  }
  EXPECT_TRUE(a.check_invariants());
}

TEST(Bst, Pto1CommitsEliminateDescriptorAllocation) {
  // Single-threaded PTO1: every operation commits; no Info descriptors and
  // no flag CASes should appear.
  BstAdapter<SimPlatform> a;
  pto::sim::RunResult baseline, accelerated;
  {
    BstAdapter<SimPlatform> b;
    baseline = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = b.make_ctx();
      for (int i = 0; i < 300; ++i) {
        b.insert(ctx, Mode<SimPlatform>::kLockfree, i % 64);
        b.remove(ctx, Mode<SimPlatform>::kLockfree, i % 64);
      }
    });
  }
  SiteDelta ins("bst.insert.pto1");
  SiteDelta rem("bst.remove.pto1");
  accelerated = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 300; ++i) {
      a.insert(ctx, Mode<SimPlatform>::kPto1, i % 64);
      a.remove(ctx, Mode<SimPlatform>::kPto1, i % 64);
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
  BstAdapter<SimPlatform> a;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 0.3;  // partial failure: mixed paths
  cfg.seed = 9;
  std::vector<std::vector<int>> net(4, std::vector<int>(64, 0));
  auto res = pto::sim::run(4, cfg, [&](unsigned tid) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 300; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 64);
      if (pto::sim::rnd() % 2 == 0) {
        if (a.insert(ctx, Mode<SimPlatform>::kPto12, k)) {
          ++net[tid][static_cast<std::size_t>(k)];
        }
      } else {
        if (a.remove(ctx, Mode<SimPlatform>::kPto12, k)) {
          --net[tid][static_cast<std::size_t>(k)];
        }
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = a.make_ctx();
  for (int k = 0; k < 64; ++k) {
    int total = 0;
    for (auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(a.contains(ctx, Mode<SimPlatform>::kLockfree, k), total == 1);
  }
  EXPECT_TRUE(a.check_invariants());
}

TEST(Bst, NativePlatformAllModes) {
  BstAdapter<pto::NativePlatform> a;
  for (auto m : {Mode<pto::NativePlatform>::kLockfree,
                 Mode<pto::NativePlatform>::kPto1,
                 Mode<pto::NativePlatform>::kPto2,
                 Mode<pto::NativePlatform>::kPto12}) {
    BstAdapter<pto::NativePlatform> b;
    pto::testutil::sequential_model_check(b, m, 128, 1500,
                                          static_cast<int>(m) + 40);
  }
  (void)a;
}

}  // namespace
