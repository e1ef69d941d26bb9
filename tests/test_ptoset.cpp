// PTOArraySet — the §5 "PTO-friendly design" demonstrator: model checks,
// capacity behaviour, fast/slow path interplay, concurrency, and the design
// claim itself (fast path allocates nothing; slow path works when every
// transaction dies).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.h"
#include "ds/ptoset/pto_array_set.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::PTOArraySet;
using pto::SimPlatform;

TEST(PtoArraySet, SequentialMatchesStdSet) {
  PTOArraySet<SimPlatform, 64> s;
  auto ctx = s.make_ctx();
  std::set<std::int64_t> model;
  pto::SplitMix64 rng(13);
  for (int i = 0; i < 4000; ++i) {
    auto k = static_cast<std::int64_t>(rng.next_below(48));  // fits capacity
    switch (rng.next_percent() % 3) {
      case 0:
        ASSERT_EQ(s.insert(ctx, k), model.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(s.remove(ctx, k), model.erase(k) == 1);
        break;
      default:
        ASSERT_EQ(s.contains(ctx, k), model.count(k) == 1);
    }
    ASSERT_TRUE(s.check_invariants());
  }
  EXPECT_EQ(s.size_slow(), model.size());
}

TEST(PtoArraySet, CapacityBounds) {
  PTOArraySet<SimPlatform, 8> s;
  auto ctx = s.make_ctx();
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(s.insert(ctx, i));
  EXPECT_TRUE(s.full());
  EXPECT_FALSE(s.insert(ctx, 100));  // rejected, set unchanged
  EXPECT_EQ(s.size_slow(), 8u);
  EXPECT_FALSE(s.insert(ctx, 3));  // duplicate also false
  EXPECT_TRUE(s.remove(ctx, 0));
  EXPECT_TRUE(s.insert(ctx, 100));
  EXPECT_TRUE(s.check_invariants());
}

TEST(PtoArraySet, FastPathAllocatesNothing) {
  // The design claim (§5): steady-state updates touch no allocator at all.
  PTOArraySet<SimPlatform, 32> s;
  SiteDelta lookup("ptoset.lookup");
  SiteDelta update("ptoset.update");
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = s.make_ctx();
    for (int i = 0; i < 500; ++i) {
      s.insert(ctx, i % 16);
      s.remove(ctx, i % 16);
    }
    EXPECT_EQ(lookup.get().fallbacks + update.get().fallbacks, 0u);
  });
  EXPECT_EQ(res.totals().allocs, 0u);
  EXPECT_LE(res.totals().cas_ops, 1u);  // the epoch-handle registration CAS
}

TEST(PtoArraySet, SlowPathCarriesTheLoadUnderFailureInjection) {
  // Every transaction dies: the unoptimized CoW slow path must keep full
  // correctness (the paper's progress-preservation requirement).
  PTOArraySet<SimPlatform, 32> s;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  std::set<std::int64_t> model;
  SiteDelta lookup("ptoset.lookup");
  SiteDelta update("ptoset.update");
  pto::sim::run(1, cfg, [&](unsigned) {
    auto ctx = s.make_ctx();
    pto::SplitMix64 rng(5);
    for (int i = 0; i < 400; ++i) {
      auto k = static_cast<std::int64_t>(rng.next_below(24));
      if (rng.next() % 2 == 0) {
        ASSERT_EQ(s.insert(ctx, k), model.insert(k).second);
      } else {
        ASSERT_EQ(s.remove(ctx, k), model.erase(k) == 1);
      }
    }
    EXPECT_EQ(lookup.get().commits + update.get().commits, 0u);
  });
  EXPECT_EQ(s.size_slow(), model.size());
  EXPECT_TRUE(s.check_invariants());
}

class PtoSetConcurrent
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(PtoSetConcurrent, PerKeyConsistency) {
  auto [threads, seed, abort_prob] = GetParam();
  const auto n = static_cast<unsigned>(threads);
  PTOArraySet<SimPlatform, 48> s;
  constexpr int kRange = 32;
  std::vector<std::vector<int>> net(n, std::vector<int>(kRange, 0));
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.explore.fault_rate = abort_prob;  // mix fast and slow paths
  auto res = pto::sim::run(n, cfg, [&](unsigned tid) {
    auto ctx = s.make_ctx();
    for (int i = 0; i < 300; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % kRange);
      auto c = pto::sim::rnd() % 100;
      if (c < 20) {
        (void)s.contains(ctx, k);
      } else if (c < 60) {
        if (s.insert(ctx, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (s.remove(ctx, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = s.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(s.contains(ctx, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(s.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PtoSetConcurrent,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(1, 2),
                       ::testing::Values(0.0, 0.02)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) > 0 ? "_inj" : "_clean");
    });

TEST(PtoArraySet, NativePlatform) {
  PTOArraySet<pto::NativePlatform, 48> s;
  auto ctx = s.make_ctx();
  std::set<std::int64_t> model;
  pto::SplitMix64 rng(77);
  for (int i = 0; i < 2500; ++i) {
    auto k = static_cast<std::int64_t>(rng.next_below(40));
    if (rng.next() % 2 == 0) {
      ASSERT_EQ(s.insert(ctx, k), model.insert(k).second);
    } else {
      ASSERT_EQ(s.remove(ctx, k), model.erase(k) == 1);
    }
  }
  EXPECT_EQ(s.size_slow(), model.size());
  EXPECT_TRUE(s.check_invariants());
}

}  // namespace
