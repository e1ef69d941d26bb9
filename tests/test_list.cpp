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

template <class P>
struct ListAdapter {
  using Mode = ::Mode;
  using Ctx = typename HarrisList<P>::ThreadCtx;
  HarrisList<P> ds;

  Ctx make_ctx() { return ds.make_ctx(); }
  bool insert(Ctx& c, Mode m, std::int64_t k) {
    return m == Mode::kLf ? ds.insert_lf(c, k) : ds.insert_pto(c, k);
  }
  bool remove(Ctx& c, Mode m, std::int64_t k) {
    return m == Mode::kLf ? ds.remove_lf(c, k) : ds.remove_pto(c, k);
  }
  bool contains(Ctx& c, Mode m, std::int64_t k) {
    return m == Mode::kLf ? ds.contains_lf(c, k) : ds.contains_pto(c, k);
  }
  bool check_invariants() { return ds.check_invariants(); }
  std::size_t size_slow() { return ds.size_slow(); }
};

class ListSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(ListSequential, MatchesStdSet) {
  ListAdapter<SimPlatform> a;
  pto::testutil::sequential_model_check(a, GetParam(), 128, 4000, 61);
}

INSTANTIATE_TEST_SUITE_P(Modes, ListSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class ListConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(ListConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  ListAdapter<SimPlatform> a;
  pto::testutil::concurrent_consistency(a, mode,
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
  ListAdapter<SimPlatform> a;
  std::vector<std::vector<int>> net(6, std::vector<int>(32, 0));
  pto::sim::Config cfg;
  cfg.seed = 17;
  auto res = pto::sim::run(6, cfg, [&](unsigned tid) {
    auto ctx = a.make_ctx();
    Mode m = tid % 2 == 0 ? Mode::kLf : Mode::kPto;
    for (int i = 0; i < 250; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 32);
      if (pto::sim::rnd() % 2 == 0) {
        if (a.insert(ctx, m, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.remove(ctx, m, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = a.make_ctx();
  for (int k = 0; k < 32; ++k) {
    int total = 0;
    for (auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(a.contains(ctx, Mode::kLf, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(a.check_invariants());
}

TEST(List, PtoRemoveSkipsIntermediateMark) {
  // An uncontended PTO remove commits mark+unlink in one transaction: no
  // CAS at all on the fast path.
  ListAdapter<SimPlatform> a;
  SiteDelta rem("list.remove");
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 100; ++i) a.ds.insert_pto(ctx, i);
    for (int i = 0; i < 100; ++i) a.ds.remove_pto(ctx, i);
    EXPECT_EQ(rem.get().commits, 100u);
    EXPECT_EQ(rem.get().fallbacks, 0u);
  });
  EXPECT_LE(res.totals().cas_ops, 8u);  // epoch bookkeeping only
}

TEST(List, FailureInjectionFallsBack) {
  ListAdapter<SimPlatform> a;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta ins("list.insert");
  SiteDelta rem("list.remove");
  pto::sim::run(2, cfg, [&](unsigned) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 150; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 16);
      if (pto::sim::rnd() % 2 == 0) {
        a.ds.insert_pto(ctx, k);
      } else {
        a.ds.remove_pto(ctx, k);
      }
    }
    EXPECT_EQ(ins.get().commits + rem.get().commits, 0u);
  });
  EXPECT_TRUE(a.check_invariants());
}

TEST(List, NativePlatform) {
  ListAdapter<pto::NativePlatform> a;
  pto::testutil::sequential_model_check(a, Mode::kPto, 64, 1500, 9);
}

}  // namespace
