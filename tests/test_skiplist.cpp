// Skiplist set and SkipQueue: model checks, deterministic concurrent
// consistency, PTO/LF interoperability, and priority-queue semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "ds/skiplist/skiplist.h"
#include "ds/skiplist/skipqueue.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "set_test_util.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::SimPlatform;
using pto::SkipList;
using pto::SkipQueue;

enum class Mode { kLf, kPto };
const char* mode_name(Mode m) { return m == Mode::kLf ? "lf" : "pto"; }

template <class P>
struct SkipAdapter {
  using Mode = ::Mode;
  using Ctx = typename SkipList<P>::ThreadCtx;
  SkipList<P> ds;

  Ctx make_ctx() { return ds.make_ctx(); }
  bool insert(Ctx& c, Mode m, std::int64_t k) {
    return m == Mode::kLf ? ds.insert_lf(c, k) : ds.insert_pto(c, k);
  }
  bool remove(Ctx& c, Mode m, std::int64_t k) {
    return m == Mode::kLf ? ds.remove_lf(c, k) : ds.remove_pto(c, k);
  }
  bool contains(Ctx& c, Mode, std::int64_t k) { return ds.contains(c, k); }
  bool check_invariants() { return ds.check_invariants(); }
  std::size_t size_slow() { return ds.size_slow(); }
};

class SkipListSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(SkipListSequential, MatchesStdSet) {
  SkipAdapter<SimPlatform> a;
  pto::testutil::sequential_model_check(a, GetParam(), 256, 4000, 11);
}

INSTANTIATE_TEST_SUITE_P(Modes, SkipListSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class SkipListConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(SkipListConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  SkipAdapter<SimPlatform> a;
  pto::testutil::concurrent_consistency(a, mode,
                                        static_cast<unsigned>(threads), range,
                                        400, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkipListConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLf, Mode::kPto),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(16, 512),  // high / low contention
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(SkipList, MixedLfAndPtoThreadsInteroperate) {
  // Half the threads run lock-free ops, half run PTO ops, on the same keys:
  // the fallback path and the transactional path must compose safely.
  SkipAdapter<SimPlatform> a;
  std::vector<std::vector<int>> net(8, std::vector<int>(64, 0));
  pto::sim::Config cfg;
  cfg.seed = 1234;
  auto res = pto::sim::run(8, cfg, [&](unsigned tid) {
    auto ctx = a.make_ctx();
    Mode m = (tid % 2 == 0) ? Mode::kLf : Mode::kPto;
    for (int i = 0; i < 300; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 64);
      if (pto::sim::rnd() % 2 == 0) {
        if (a.insert(ctx, m, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.remove(ctx, m, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  auto ctx = a.make_ctx();
  for (int k = 0; k < 64; ++k) {
    int total = 0;
    for (auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(a.contains(ctx, Mode::kLf, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(a.check_invariants());
}

TEST(SkipList, PtoFallsBackUnderFailureInjection) {
  SkipAdapter<SimPlatform> a;
  pto::sim::Config cfg;
  cfg.htm.spurious_abort_prob = 1.0;
  SiteDelta ins("skiplist.insert");
  SiteDelta rem("skiplist.remove");
  pto::sim::run(4, cfg, [&](unsigned) {
    auto ctx = a.make_ctx();
    for (int i = 0; i < 200; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 32);
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

TEST(SkipList, NativePlatformSequential) {
  SkipAdapter<pto::NativePlatform> a;
  pto::testutil::sequential_model_check(a, Mode::kPto, 128, 2000, 3);
}

// ---------------------------------------------------------------------------
// SkipQueue (priority queue)
// ---------------------------------------------------------------------------

class SkipQueueTest : public ::testing::TestWithParam<Mode> {};

TEST_P(SkipQueueTest, SequentialPopsAscending) {
  Mode m = GetParam();
  SkipQueue<SimPlatform> q;
  auto ctx = q.make_ctx();
  pto::SplitMix64 rng(5);
  std::multiset<std::int32_t> model;
  for (int i = 0; i < 500; ++i) {
    auto v = static_cast<std::int32_t>(rng.next_below(1000));
    if (m == Mode::kLf) {
      q.push_lf(ctx, v);
    } else {
      q.push_pto(ctx, v);
    }
    model.insert(v);
  }
  // Duplicates must be preserved (uniquified keys).
  EXPECT_EQ(q.size_slow(), model.size());
  std::int32_t last = INT32_MIN;
  while (!model.empty()) {
    auto got = (m == Mode::kLf) ? q.pop_min_lf(ctx) : q.pop_min_pto(ctx);
    ASSERT_TRUE(got.has_value());
    ASSERT_GE(*got, last);
    ASSERT_EQ(*got, *model.begin());
    model.erase(model.begin());
    last = *got;
  }
  EXPECT_FALSE(q.pop_min_lf(ctx).has_value());
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, SkipQueueTest,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class SkipQueueConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int>> {};

// Each thread pushes a known multiset and pops; afterwards, pushed ==
// popped + remaining (value conservation), and nothing is popped twice.
TEST_P(SkipQueueConcurrent, ValueConservation) {
  auto [mode, threads, seed] = GetParam();
  const auto n = static_cast<unsigned>(threads);
  SkipQueue<SimPlatform> q;
  std::vector<std::multiset<std::int32_t>> pushed(n), popped(n);
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  auto res = pto::sim::run(n, cfg, [&](unsigned tid) {
    auto ctx = q.make_ctx();
    for (int i = 0; i < 200; ++i) {
      if (pto::sim::rnd() % 2 == 0) {
        auto v = static_cast<std::int32_t>(pto::sim::rnd() % 100);
        if (mode == Mode::kLf) {
          q.push_lf(ctx, v);
        } else {
          q.push_pto(ctx, v);
        }
        pushed[tid].insert(v);
      } else {
        auto got = (mode == Mode::kLf) ? q.pop_min_lf(ctx)
                                       : q.pop_min_pto(ctx);
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
  auto ctx = q.make_ctx();
  while (auto got = q.pop_min_lf(ctx)) all_popped.insert(*got);
  EXPECT_EQ(all_pushed, all_popped);
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkipQueueConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLf, Mode::kPto),
                       ::testing::Values(2, 4, 8), ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
