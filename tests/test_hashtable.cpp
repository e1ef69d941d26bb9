// Freezable-set hash table: model checks, resize behaviour, concurrent
// consistency for CoW / PTO / PTO+Inplace, and the in-place counter protocol.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ds/hashtable/fset_hash.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "set_test_util.h"
#include "sim/sim.h"

namespace {

using pto::FSetHash;
using pto::SimPlatform;

template <class P>
using Mode = typename FSetHash<P>::Mode;

const char* mode_name(Mode<SimPlatform> m) {
  switch (m) {
    case Mode<SimPlatform>::kLockfree: return "lf";
    case Mode<SimPlatform>::kPto: return "pto";
    default: return "inplace";
  }
}

template <class P>
struct HashAdapter {
  using Mode = typename FSetHash<P>::Mode;
  using Ctx = typename FSetHash<P>::ThreadCtx;
  FSetHash<P> ds;

  Ctx make_ctx() { return ds.make_ctx(); }
  bool insert(Ctx& c, Mode m, std::int64_t k) { return ds.insert(c, k, m); }
  bool remove(Ctx& c, Mode m, std::int64_t k) { return ds.remove(c, k, m); }
  bool contains(Ctx& c, Mode m, std::int64_t k) {
    return ds.contains(c, k, m);
  }
  bool check_invariants() { return ds.check_invariants(); }
  std::size_t size_slow() { return ds.size_slow(); }
};

class HashSequential : public ::testing::TestWithParam<Mode<SimPlatform>> {};

TEST_P(HashSequential, MatchesStdSet) {
  HashAdapter<SimPlatform> a;
  pto::testutil::sequential_model_check(a, GetParam(), 512, 6000, 31);
  // 512-key range with 40% inserts must have grown the table.
  EXPECT_GT(a.ds.table_len(), FSetHash<SimPlatform>::kInitialBuckets);
}

INSTANTIATE_TEST_SUITE_P(Modes, HashSequential,
                         ::testing::Values(Mode<SimPlatform>::kLockfree,
                                           Mode<SimPlatform>::kPto,
                                           Mode<SimPlatform>::kPtoInplace),
                         [](const auto& i) { return mode_name(i.param); });

class HashConcurrent : public ::testing::TestWithParam<
                           std::tuple<Mode<SimPlatform>, int, int, int>> {};

TEST_P(HashConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  HashAdapter<SimPlatform> a;
  pto::testutil::concurrent_consistency(a, mode,
                                        static_cast<unsigned>(threads), range,
                                        400, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashConcurrent,
    ::testing::Combine(::testing::Values(Mode<SimPlatform>::kLockfree,
                                         Mode<SimPlatform>::kPto,
                                         Mode<SimPlatform>::kPtoInplace),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(32, 2048),  // with/without resizes
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(Hash, CowAndPtoInteroperate) {
  // kLockfree and kPto share the CoW protocol and may mix freely.
  HashAdapter<SimPlatform> a;
  std::vector<std::vector<int>> net(6, std::vector<int>(128, 0));
  pto::sim::Config cfg;
  cfg.seed = 5;
  auto res = pto::sim::run(6, cfg, [&](unsigned tid) {
    auto ctx = a.make_ctx();
    auto m = tid % 2 == 0 ? Mode<SimPlatform>::kLockfree
                          : Mode<SimPlatform>::kPto;
    for (int i = 0; i < 400; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 128);
      if (pto::sim::rnd() % 2 == 0) {
        if (a.insert(ctx, m, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.remove(ctx, m, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = a.make_ctx();
  for (int k = 0; k < 128; ++k) {
    int total = 0;
    for (auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(a.contains(ctx, Mode<SimPlatform>::kLockfree, k), total == 1);
  }
  EXPECT_TRUE(a.check_invariants());
}

TEST(Hash, InplaceEliminatesAllocation) {
  // Steady-state in-place updates (no resizes: small key range, bucket never
  // crosses the threshold) must allocate nothing; CoW allocates per update.
  auto run_mode = [](Mode<SimPlatform> m) {
    HashAdapter<SimPlatform> a;
    auto res = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = a.make_ctx();
      for (int i = 0; i < 500; ++i) {
        a.insert(ctx, m, i % 8);
        a.remove(ctx, m, i % 8);
      }
    });
    return res.totals().allocs;
  };
  auto cow_allocs = run_mode(Mode<SimPlatform>::kLockfree);
  auto inplace_allocs = run_mode(Mode<SimPlatform>::kPtoInplace);
  EXPECT_GT(cow_allocs, 900u);      // ~one per update
  EXPECT_LT(inplace_allocs, 64u);   // only warm-up buckets
}

TEST(Hash, PtoLookupElidesEpoch) {
  // Transactional lookups skip the epoch reservation stores and fences.
  HashAdapter<SimPlatform> a;
  {
    auto ctx = a.make_ctx();
    for (int k = 0; k < 64; ++k) {
      a.insert(ctx, Mode<SimPlatform>::kLockfree, k);
    }
  }
  auto count_fences = [&](Mode<SimPlatform> m) {
    auto res = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = a.make_ctx();
      for (int i = 0; i < 500; ++i) {
        a.contains(ctx, m, i % 128);
      }
    });
    return res.totals().fences;
  };
  auto lf_fences = count_fences(Mode<SimPlatform>::kLockfree);
  auto pto_fences = count_fences(Mode<SimPlatform>::kPto);
  EXPECT_GT(lf_fences, 400u);  // one reservation fence per lookup
  EXPECT_LT(pto_fences, 64u);
}

TEST(Hash, InplaceFailureInjectionFallsBackToCow) {
  HashAdapter<SimPlatform> a;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  pto::sim::run(2, cfg, [&](unsigned) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 200; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 64);
      if (pto::sim::rnd() % 2 == 0) {
        a.insert(ctx, Mode<SimPlatform>::kPtoInplace, k);
      } else {
        a.remove(ctx, Mode<SimPlatform>::kPtoInplace, k);
      }
      // Lookups must still be correct while every transaction dies.
      (void)a.contains(ctx, Mode<SimPlatform>::kPtoInplace, k);
    }
  });
  EXPECT_TRUE(a.check_invariants());
}

TEST(Hash, NativePlatformAllModes) {
  for (auto m : {Mode<pto::NativePlatform>::kLockfree,
                 Mode<pto::NativePlatform>::kPto,
                 Mode<pto::NativePlatform>::kPtoInplace}) {
    HashAdapter<pto::NativePlatform> a;
    pto::testutil::sequential_model_check(a, m, 256, 2500,
                                          static_cast<int>(m) + 50);
  }
}

}  // namespace
