// Mindicator: sequential semantics against a reference model, quiescent
// invariants, and deterministic concurrent stress on the simulator for every
// variant (lock-free / PTO / TLE).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ds/mindicator/mindicator.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "sim_util.h"
#include "site_delta.h"

namespace {

using pto::Mindicator;
using pto::SimPlatform;

enum class Variant { kLockfree, kPto, kTle };

const char* name(Variant v) {
  switch (v) {
    case Variant::kLockfree: return "lf";
    case Variant::kPto: return "pto";
    default: return "tle";
  }
}

template <class P>
void arrive(Mindicator<P>& m, Variant v, unsigned leaf, std::int32_t x) {
  switch (v) {
    case Variant::kLockfree: m.arrive_lf(leaf, x); break;
    case Variant::kPto: m.arrive_pto(leaf, x); break;
    case Variant::kTle: m.arrive_tle(leaf, x); break;
  }
}

template <class P>
void depart(Mindicator<P>& m, Variant v, unsigned leaf) {
  switch (v) {
    case Variant::kLockfree: m.depart_lf(leaf); break;
    case Variant::kPto: m.depart_pto(leaf); break;
    case Variant::kTle: m.depart_tle(leaf); break;
  }
}

class MindicatorSequential : public ::testing::TestWithParam<Variant> {};

TEST_P(MindicatorSequential, MatchesReferenceModel) {
  Variant v = GetParam();
  Mindicator<SimPlatform> m(16);
  std::multiset<std::int32_t> model;
  std::vector<std::int32_t> slot(16, Mindicator<SimPlatform>::kEmpty);
  pto::SplitMix64 rng(7 + static_cast<int>(v));

  for (int step = 0; step < 2000; ++step) {
    unsigned leaf = static_cast<unsigned>(rng.next_below(16));
    if (slot[leaf] == Mindicator<SimPlatform>::kEmpty) {
      auto x = static_cast<std::int32_t>(rng.next_below(1000));
      arrive(m, v, leaf, x);
      slot[leaf] = x;
      model.insert(x);
    } else {
      depart(m, v, leaf);
      model.erase(model.find(slot[leaf]));
      slot[leaf] = Mindicator<SimPlatform>::kEmpty;
    }
    std::int32_t expect = model.empty() ? Mindicator<SimPlatform>::kEmpty
                                        : *model.begin();
    ASSERT_EQ(m.query(), expect) << "variant=" << name(v) << " step=" << step;
  }
  if (v != Variant::kTle) {
    EXPECT_TRUE(m.check_invariants());
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, MindicatorSequential,
                         ::testing::Values(Variant::kLockfree, Variant::kPto,
                                           Variant::kTle),
                         [](const auto& info) { return name(info.param); });

class MindicatorStress
    : public ::testing::TestWithParam<std::tuple<Variant, int, int>> {};

// Rounds of concurrent arrives and departs separated by barriers. At each
// quiescent point the root must equal the exact minimum of the announced
// values (the structure is quiescently consistent; mid-flight queries are
// exercised but only sanity-checked, as in the original).
TEST_P(MindicatorStress, ConcurrentArriveDepartQuiesces) {
  auto [v, threads, seed] = GetParam();
  const auto n = static_cast<unsigned>(threads);
  Mindicator<SimPlatform> m(64);
  pto::testutil::SimBarrier barrier(n);
  std::vector<std::int32_t> announced(n, 0);
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);

  auto res = pto::sim::run(n, cfg, [&](unsigned tid) {
    for (int round = 0; round < 60; ++round) {
      auto x = static_cast<std::int32_t>(pto::sim::rnd() % 100000);
      announced[tid] = x;
      arrive(m, v, tid, x);
      (void)m.query();  // exercise concurrent queries
      barrier.wait();
      if (tid == 0) {
        std::int32_t expect = *std::min_element(announced.begin(),
                                                announced.end());
        ASSERT_EQ(m.query(), expect) << "round " << round;
      }
      barrier.wait();
      // Staggered departs: even threads leave first, so odd threads' values
      // must keep the min alive.
      if (tid % 2 == 0) depart(m, v, tid);
      barrier.wait();
      if (tid == 1 && n > 1) {
        std::int32_t expect = announced[1];
        for (unsigned t = 3; t < n; t += 2) {
          expect = std::min(expect, announced[t]);
        }
        ASSERT_EQ(m.query(), expect) << "round " << round;
      }
      barrier.wait();
      if (tid % 2 == 1) depart(m, v, tid);
      barrier.wait();
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  EXPECT_EQ(m.query(), Mindicator<SimPlatform>::kEmpty);
  if (v != Variant::kTle) {
    EXPECT_TRUE(m.check_invariants());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MindicatorStress,
    ::testing::Combine(::testing::Values(Variant::kLockfree, Variant::kPto,
                                         Variant::kTle),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(MindicatorPto, FastPathCommitsOnSim) {
  Mindicator<SimPlatform> m(16);
  SiteDelta arrive("mindicator.arrive");
  SiteDelta depart("mindicator.depart");
  pto::sim::run(1, {}, [&](unsigned) {
    for (int i = 0; i < 100; ++i) {
      m.arrive_pto(0, i);
      m.depart_pto(0);
    }
  });
  EXPECT_EQ(arrive.get().commits + depart.get().commits, 200u);
  EXPECT_EQ(arrive.get().fallbacks + depart.get().fallbacks, 0u);
}

TEST(MindicatorPto, FallsBackWhenTransactionsAbort) {
  Mindicator<SimPlatform> m(16);
  SiteDelta arrive("mindicator.arrive");
  SiteDelta depart("mindicator.depart");
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;  // failure injection: every tx dies
  pto::sim::run(1, cfg, [&](unsigned) {
    for (int i = 0; i < 50; ++i) {
      m.arrive_pto(0, i);
      m.depart_pto(0);
    }
  });
  EXPECT_EQ(arrive.get().commits + depart.get().commits, 0u);
  EXPECT_EQ(arrive.get().fallbacks + depart.get().fallbacks, 100u);
  EXPECT_EQ(m.query(), Mindicator<SimPlatform>::kEmpty);
  EXPECT_TRUE(m.check_invariants());
}

TEST(MindicatorNative, WorksWithRealThreadsOrRtm) {
  Mindicator<pto::NativePlatform> m(16);
  for (int i = 0; i < 200; ++i) {
    m.arrive_pto(static_cast<unsigned>(i % 16), i);
  }
  EXPECT_EQ(m.query(), 0);
  for (int i = 0; i < 16; ++i) m.depart_pto(static_cast<unsigned>(i));
  EXPECT_EQ(m.query(), Mindicator<pto::NativePlatform>::kEmpty);
}

TEST(MindicatorPto, EquivalentToLockfreeUnderMixedUse) {
  // PTO and LF operations interleave on the same structure (fallback
  // compatibility): final state must still be consistent.
  Mindicator<SimPlatform> m(64);
  pto::sim::Config cfg;
  cfg.seed = 99;
  pto::sim::run(8, cfg, [&](unsigned tid) {
    for (int i = 0; i < 200; ++i) {
      auto x = static_cast<std::int32_t>(pto::sim::rnd() % 1000);
      if (tid % 2 == 0) {
        m.arrive_lf(tid, x);
        m.depart_lf(tid);
      } else {
        m.arrive_pto(tid, x);
        m.depart_pto(tid);
      }
    }
  });
  EXPECT_EQ(m.query(), Mindicator<SimPlatform>::kEmpty);
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
