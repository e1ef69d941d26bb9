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

using Hash = pto::service::HashAdapter<SimPlatform>;
using Mode = Hash::Mode;

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kLockfree: return "lf";
    case Mode::kPto: return "pto";
    default: return "inplace";
  }
}

class HashSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(HashSequential, MatchesStdSet) {
  FSetHash<SimPlatform> ds;
  pto::testutil::sequential_model_check(ds, Hash{GetParam()}, 512, 6000, 31);
  // 512-key range with 40% inserts must have grown the table.
  EXPECT_GT(ds.table_len(), FSetHash<SimPlatform>::kInitialBuckets);
}

INSTANTIATE_TEST_SUITE_P(Modes, HashSequential,
                         ::testing::Values(Mode::kLockfree, Mode::kPto,
                                           Mode::kPtoInplace),
                         [](const auto& i) { return mode_name(i.param); });

class HashConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(HashConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  FSetHash<SimPlatform> ds;
  pto::testutil::concurrent_consistency(ds, Hash{mode},
                                        static_cast<unsigned>(threads), range,
                                        400, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLockfree, Mode::kPto,
                                         Mode::kPtoInplace),
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
  FSetHash<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.seed = 5;
  pto::testutil::mixed_consistency(
      ds, Hash{Mode::kLockfree},
      [](unsigned tid) {
        return Hash{tid % 2 == 0 ? Mode::kLockfree : Mode::kPto};
      },
      6, 128, 400, cfg);
}

TEST(Hash, InplaceEliminatesAllocation) {
  // Steady-state in-place updates (no resizes: small key range, bucket never
  // crosses the threshold) must allocate nothing; CoW allocates per update.
  auto run_mode = [](Mode m) {
    FSetHash<SimPlatform> ds;
    auto res = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = ds.make_ctx();
      for (int i = 0; i < 500; ++i) {
        ds.insert(ctx, i % 8, m);
        ds.remove(ctx, i % 8, m);
      }
    });
    return res.totals().allocs;
  };
  auto cow_allocs = run_mode(Mode::kLockfree);
  auto inplace_allocs = run_mode(Mode::kPtoInplace);
  EXPECT_GT(cow_allocs, 900u);      // ~one per update
  EXPECT_LT(inplace_allocs, 64u);   // only warm-up buckets
}

TEST(Hash, PtoLookupElidesEpoch) {
  // Transactional lookups skip the epoch reservation stores and fences.
  FSetHash<SimPlatform> ds;
  {
    auto ctx = ds.make_ctx();
    for (int k = 0; k < 64; ++k) ds.insert(ctx, k, Mode::kLockfree);
  }
  auto count_fences = [&](Mode m) {
    auto res = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = ds.make_ctx();
      for (int i = 0; i < 500; ++i) ds.contains(ctx, i % 128, m);
    });
    return res.totals().fences;
  };
  auto lf_fences = count_fences(Mode::kLockfree);
  auto pto_fences = count_fences(Mode::kPto);
  EXPECT_GT(lf_fences, 400u);  // one reservation fence per lookup
  EXPECT_LT(pto_fences, 64u);
}

TEST(Hash, InplaceFailureInjectionFallsBackToCow) {
  FSetHash<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  pto::sim::run(2, cfg, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < 200; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 64);
      if (pto::sim::rnd() % 2 == 0) {
        ds.insert(ctx, k, Mode::kPtoInplace);
      } else {
        ds.remove(ctx, k, Mode::kPtoInplace);
      }
      // Lookups must still be correct while every transaction dies.
      (void)ds.contains(ctx, k, Mode::kPtoInplace);
    }
  });
  EXPECT_TRUE(ds.check_invariants());
}

TEST(Hash, NativePlatformAllModes) {
  using NativeHash = pto::service::HashAdapter<pto::NativePlatform>;
  for (auto m : {NativeHash::Mode::kLockfree, NativeHash::Mode::kPto,
                 NativeHash::Mode::kPtoInplace}) {
    FSetHash<pto::NativePlatform> ds;
    pto::testutil::sequential_model_check(ds, NativeHash{m}, 256, 2500,
                                          static_cast<int>(m) + 50);
  }
}

}  // namespace
