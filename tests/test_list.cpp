// Harris linked-list set: model checks and deterministic concurrent
// consistency for the lock-free baseline and the PTO acceleration.
#include <gtest/gtest.h>

#include <tuple>

#include "ds/list/harris_list.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "set_test_util.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::HarrisList;
using pto::SimPlatform;

enum class Mode { kLf, kPto };
const char* mode_name(Mode m) { return m == Mode::kLf ? "lf" : "pto"; }

using List = pto::service::ListAdapter<SimPlatform>;

class ListSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(ListSequential, MatchesStdSet) {
  HarrisList<SimPlatform> ds;
  pto::testutil::sequential_model_check(ds, List{GetParam() == Mode::kPto},
                                        128, 4000, 61);
}

INSTANTIATE_TEST_SUITE_P(Modes, ListSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class ListConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(ListConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  HarrisList<SimPlatform> ds;
  pto::testutil::concurrent_consistency(ds, List{mode == Mode::kPto},
                                        static_cast<unsigned>(threads), range,
                                        300, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLf, Mode::kPto),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(8, 128),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(List, MixedModesInteroperate) {
  HarrisList<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.seed = 17;
  pto::testutil::mixed_consistency(
      ds, List{false}, [](unsigned tid) { return List{tid % 2 != 0}; }, 6, 32,
      250, cfg);
}

TEST(List, PtoRemoveSkipsIntermediateMark) {
  // An uncontended PTO remove commits mark+unlink in one transaction: no
  // CAS at all on the fast path.
  HarrisList<SimPlatform> ds;
  SiteDelta rem("list.remove");
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < 100; ++i) ds.insert_pto(ctx, i);
    for (int i = 0; i < 100; ++i) ds.remove_pto(ctx, i);
    EXPECT_EQ(rem.get().commits, 100u);
    EXPECT_EQ(rem.get().fallbacks, 0u);
  });
  EXPECT_LE(res.totals().cas_ops, 8u);  // epoch bookkeeping only
}

TEST(List, FailureInjectionFallsBack) {
  HarrisList<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta ins("list.insert");
  SiteDelta rem("list.remove");
  pto::sim::run(2, cfg, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < 150; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 16);
      if (pto::sim::rnd() % 2 == 0) {
        ds.insert_pto(ctx, k);
      } else {
        ds.remove_pto(ctx, k);
      }
    }
    EXPECT_EQ(ins.get().commits + rem.get().commits, 0u);
  });
  EXPECT_TRUE(ds.check_invariants());
}

TEST(List, NativePlatform) {
  HarrisList<pto::NativePlatform> ds;
  pto::testutil::sequential_model_check(
      ds, pto::service::ListAdapter<pto::NativePlatform>{true}, 64, 1500, 9);
}

}  // namespace
