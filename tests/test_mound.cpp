// Mound priority queue: sequential ordering against std::priority_queue,
// concurrent value conservation, heap invariants at quiescence, and the
// local-PTO (DCAS/DCSS) acceleration paths.
#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ds/mound/mound.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::Mound;
using pto::SimPlatform;

enum class Mode { kLf, kPto };
const char* mode_name(Mode m) { return m == Mode::kLf ? "lf" : "pto"; }

template <class P>
void push(Mound<P>& m, typename Mound<P>::ThreadCtx& c, Mode mode,
          std::int32_t v) {
  if (mode == Mode::kLf) {
    m.insert_lf(c, v);
  } else {
    m.insert_pto(c, v);
  }
}

template <class P>
std::optional<std::int32_t> pop(Mound<P>& m, typename Mound<P>::ThreadCtx& c,
                                Mode mode) {
  return mode == Mode::kLf ? m.extract_min_lf(c) : m.extract_min_pto(c);
}

class MoundSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(MoundSequential, PopsInSortedOrder) {
  Mode mode = GetParam();
  Mound<SimPlatform> m(10);
  auto ctx = m.make_ctx();
  pto::SplitMix64 rng(17);
  std::multiset<std::int32_t> model;
  for (int i = 0; i < 400; ++i) {
    auto v = static_cast<std::int32_t>(rng.next_below(10000));
    push(m, ctx, mode, v);
    model.insert(v);
  }
  EXPECT_EQ(m.size_slow(), model.size());
  EXPECT_TRUE(m.check_invariants());
  while (!model.empty()) {
    auto got = pop(m, ctx, mode);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, *model.begin());
    model.erase(model.begin());
  }
  EXPECT_FALSE(pop(m, ctx, mode).has_value());
}

TEST_P(MoundSequential, InterleavedPushPop) {
  Mode mode = GetParam();
  Mound<SimPlatform> m(10);
  auto ctx = m.make_ctx();
  pto::SplitMix64 rng(23);
  std::multiset<std::int32_t> model;
  for (int i = 0; i < 2000; ++i) {
    if (model.empty() || rng.next_percent() < 55) {
      auto v = static_cast<std::int32_t>(rng.next_below(1000));
      push(m, ctx, mode, v);
      model.insert(v);
    } else {
      auto got = pop(m, ctx, mode);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, *model.begin());
      model.erase(model.begin());
    }
  }
  EXPECT_EQ(m.size_slow(), model.size());
  EXPECT_TRUE(m.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Modes, MoundSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class MoundConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int>> {};

TEST_P(MoundConcurrent, ValueConservation) {
  auto [mode, threads, seed] = GetParam();
  const auto n = static_cast<unsigned>(threads);
  Mound<SimPlatform> m(12);
  std::vector<std::multiset<std::int32_t>> pushed(n), popped(n);
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  auto res = pto::sim::run(n, cfg, [&](unsigned tid) {
    auto ctx = m.make_ctx();
    for (int i = 0; i < 200; ++i) {
      if (pto::sim::rnd() % 2 == 0) {
        auto v = static_cast<std::int32_t>(pto::sim::rnd() % 5000);
        push(m, ctx, mode, v);
        pushed[tid].insert(v);
      } else {
        auto got = pop(m, ctx, mode);
        if (got.has_value()) popped[tid].insert(*got);
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);

  std::multiset<std::int32_t> all_pushed, all_popped;
  for (unsigned t = 0; t < n; ++t) {
    all_pushed.insert(pushed[t].begin(), pushed[t].end());
    all_popped.insert(popped[t].begin(), popped[t].end());
  }
  auto ctx = m.make_ctx();
  while (auto got = m.extract_min_lf(ctx)) all_popped.insert(*got);
  EXPECT_EQ(all_pushed, all_popped);
  EXPECT_EQ(m.size_slow(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MoundConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLf, Mode::kPto),
                       ::testing::Values(2, 4, 8), ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Mound, MixedLfAndPtoThreads) {
  Mound<SimPlatform> m(12);
  std::vector<std::multiset<std::int32_t>> pushed(6), popped(6);
  pto::sim::Config cfg;
  cfg.seed = 31;
  auto res = pto::sim::run(6, cfg, [&](unsigned tid) {
    auto ctx = m.make_ctx();
    Mode mode = tid % 2 == 0 ? Mode::kLf : Mode::kPto;
    for (int i = 0; i < 150; ++i) {
      if (pto::sim::rnd() % 2 == 0) {
        auto v = static_cast<std::int32_t>(pto::sim::rnd() % 1000);
        push(m, ctx, mode, v);
        pushed[tid].insert(v);
      } else if (auto got = pop(m, ctx, mode)) {
        popped[tid].insert(*got);
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  std::multiset<std::int32_t> all_pushed, all_popped;
  for (unsigned t = 0; t < 6; ++t) {
    all_pushed.insert(pushed[t].begin(), pushed[t].end());
    all_popped.insert(popped[t].begin(), popped[t].end());
  }
  auto ctx = m.make_ctx();
  while (auto got = m.extract_min_lf(ctx)) all_popped.insert(*got);
  EXPECT_EQ(all_pushed, all_popped);
}

TEST(Mound, PtoReplacesCasesWithTransactions) {
  // The PTO variant's DCAS/DCSS fast paths should eliminate most CAS
  // traffic relative to the software descriptors.
  auto measure = [](Mode mode) {
    Mound<SimPlatform> m(10);
    auto res = pto::sim::run(1, {}, [&](unsigned) {
      auto ctx = m.make_ctx();
      for (int i = 0; i < 300; ++i) {
        push(m, ctx, mode, static_cast<std::int32_t>(pto::sim::rnd() % 1000));
      }
      for (int i = 0; i < 300; ++i) pop(m, ctx, mode);
    });
    return res.totals().cas_ops;
  };
  auto lf_cas = measure(Mode::kLf);
  auto pto_cas = measure(Mode::kPto);
  EXPECT_LT(pto_cas, lf_cas / 2);
}

TEST(Mound, GrowsWhenLeavesAreSmall) {
  Mound<SimPlatform> m(8);
  auto ctx = m.make_ctx();
  // Insert descending values: each new minimum forces upward placement;
  // ascending inserts force leaf probes to fail and the mound to deepen.
  for (std::int32_t v = 0; v < 500; ++v) m.insert_lf(ctx, v);
  EXPECT_EQ(m.size_slow(), 500u);
  std::int32_t last = -1;
  while (auto got = m.extract_min_lf(ctx)) {
    ASSERT_GT(*got, last);
    last = *got;
  }
  EXPECT_EQ(last, 499);
}

TEST(Mound, FailureInjectionFallsBack) {
  Mound<SimPlatform> m(10);
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta dcss("kcas.dcss");
  SiteDelta dcas("kcas.mcas");
  pto::sim::run(2, cfg, [&](unsigned) {
    auto ctx = m.make_ctx();
    for (int i = 0; i < 150; ++i) {
      m.insert_pto(ctx, static_cast<std::int32_t>(pto::sim::rnd() % 100));
      m.extract_min_pto(ctx);
    }
    EXPECT_EQ(dcss.get().commits + dcas.get().commits, 0u);
  });
  EXPECT_TRUE(m.check_invariants());
}

TEST(Mound, NativePlatform) {
  Mound<pto::NativePlatform> m(10);
  auto ctx = m.make_ctx();
  pto::SplitMix64 rng(3);
  std::multiset<std::int32_t> model;
  for (int i = 0; i < 300; ++i) {
    auto v = static_cast<std::int32_t>(rng.next_below(500));
    m.insert_pto(ctx, v);
    model.insert(v);
  }
  while (!model.empty()) {
    auto got = m.extract_min_pto(ctx);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, *model.begin());
    model.erase(model.begin());
  }
}

}  // namespace
