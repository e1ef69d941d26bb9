// Skiplist set and SkipQueue: model checks, deterministic concurrent
// consistency, PTO/LF interoperability, and priority-queue semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <unordered_map>
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

using Skip = pto::service::SkipAdapter<SimPlatform>;

class SkipListSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(SkipListSequential, MatchesStdSet) {
  SkipList<SimPlatform> ds;
  pto::testutil::sequential_model_check(ds, Skip{GetParam() == Mode::kPto},
                                        256, 4000, 11);
}

INSTANTIATE_TEST_SUITE_P(Modes, SkipListSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class SkipListConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int, int>> {};

TEST_P(SkipListConcurrent, PerKeyConsistency) {
  auto [mode, threads, range, seed] = GetParam();
  SkipList<SimPlatform> ds;
  pto::testutil::concurrent_consistency(ds, Skip{mode == Mode::kPto},
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
  SkipList<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.seed = 1234;
  pto::testutil::mixed_consistency(
      ds, Skip{false}, [](unsigned tid) { return Skip{tid % 2 != 0}; }, 8, 64,
      300, cfg);
}

TEST(SkipList, PtoFallsBackUnderFailureInjection) {
  SkipList<SimPlatform> ds;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta ins("skiplist.insert");
  SiteDelta rem("skiplist.remove");
  pto::sim::run(4, cfg, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < 200; ++i) {
      auto k = static_cast<std::int64_t>(pto::sim::rnd() % 32);
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

TEST(SkipList, NativePlatformSequential) {
  SkipList<pto::NativePlatform> ds;
  pto::testutil::sequential_model_check(
      ds, pto::service::SkipAdapter<pto::NativePlatform>{true}, 128, 2000, 3);
}

// White-box replay of an LF remove racing an LF insert of the same key, one
// step at a time on one thread. The inserter's search passes level 1 before
// the remover marks X, snips X at level 0, and links its new node Y at
// levels 0-1 from those stale preds/succs, so Y->next[1] == X. The remover's
// cleanup must still unlink X at every level before it retires X.
struct StaleSameKeyLink : SkipList<pto::NativePlatform> {
  using P = pto::NativePlatform;

  bool reachable(Node* x) {
    for (int l = 0; l < kMaxLevel; ++l) {
      for (Node* n = ptr(head_->next[l].load()); n != tail_;
           n = ptr(n->next[l].load())) {
        if (n == x) return true;
      }
    }
    return false;
  }

  void replay() {
    ThreadCtx ctx = make_ctx();
    typename pto::EpochDomain<P>::Guard g(ctx.epoch);
    Node* x = alloc_node(6, 2);
    Node* arg = x;
    ASSERT_TRUE(insert_impl(ctx, 6, &arg));
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    ASSERT_TRUE(find(ctx, 6, preds, succs));  // the inserter's search
    for (int l = 1; l >= 0; --l) x->next[l].store(mark(x->next[l].load()));
    succs[0] = ptr(x->next[0].load());
    preds[0]->next[0].store(word(succs[0]));  // it snips X at level 0
    Node* y = alloc_node(6, 2);
    for (int l = 0; l < 2; ++l) {
      y->next[l].store(word(succs[l]));
      preds[l]->next[l].store(word(y));
    }
    ASSERT_EQ(ptr(y->next[1].load()), x);
    unlink(ctx, 6);  // the remover's cleanup
    EXPECT_FALSE(reachable(x));
    EXPECT_TRUE(check_invariants());
    EXPECT_TRUE(contains(ctx, 6));
    free_node(x);  // never retired in this replay
  }
};

TEST(SkipList, CleanupUnlinksMarkedNodeBehindSameKeyNode) {
  StaleSameKeyLink s;
  s.replay();
}

// NativePlatform that records every allocation, so a test can check that a
// node takes exactly its tower and gives back what it took. Skiplist nodes
// are the only things a SkipList or SkipQueue allocates through P.
struct TowerLedger {
  std::mutex mu;
  std::unordered_map<void*, std::size_t> live;
  std::uint64_t allocs = 0;
  std::uint64_t tall = 0;  ///< nodes freed with toplevel > 1
  std::uint64_t bad = 0;   ///< frees of the wrong size or of no allocation

  void reset() {
    live.clear();
    allocs = tall = bad = 0;
  }
};
TowerLedger g_ledger;

struct LedgerPlatform : pto::NativePlatform {
  static void* alloc_bytes(std::size_t n) {
    void* p = NativePlatform::alloc_bytes(n);
    std::lock_guard<std::mutex> lk(g_ledger.mu);
    g_ledger.live.emplace(p, n);
    ++g_ledger.allocs;
    return p;
  }
  static void free_bytes(void* p, std::size_t n) {
    const int top = static_cast<SkipList<LedgerPlatform>::Node*>(p)->toplevel;
    {
      std::lock_guard<std::mutex> lk(g_ledger.mu);
      auto it = g_ledger.live.find(p);
      // Header (key, toplevel, padding) plus one 8-byte link per level.
      if (it == g_ledger.live.end() || it->second != n || top < 1 ||
          top > SkipList<LedgerPlatform>::kMaxLevel ||
          n != 16 + 8 * static_cast<std::size_t>(top)) {
        ++g_ledger.bad;
      }
      if (it != g_ledger.live.end()) g_ledger.live.erase(it);
      if (top > 1) ++g_ledger.tall;
    }
    NativePlatform::free_bytes(p, n);
  }
};

void expect_ledger_settled() {
  EXPECT_GT(g_ledger.allocs, 2u);
  EXPECT_GT(g_ledger.tall, 2u);  // towers of several heights were freed
  EXPECT_EQ(g_ledger.bad, 0u);
  EXPECT_TRUE(g_ledger.live.empty()) << g_ledger.live.size() << " outstanding";
}

TEST(SkipList, NativeNodesTakeExactlyTheirTower) {
  g_ledger.reset();
  {
    SkipList<LedgerPlatform> s;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
      threads.emplace_back([&s, t] {
        auto ctx = s.make_ctx();
        pto::SplitMix64 rng(100 + t);
        for (int i = 0; i < 4000; ++i) {
          const auto k = static_cast<std::int64_t>(rng.next_below(32));
          switch (rng.next_below(4)) {
            case 0: s.insert_pto(ctx, k); break;
            case 1: s.remove_pto(ctx, k); break;
            case 2: s.insert_lf(ctx, k); break;
            default: s.remove_lf(ctx, k); break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_TRUE(s.check_invariants());
  }
  expect_ledger_settled();
}

TEST(SkipQueue, NativeNodesTakeExactlyTheirTower) {
  g_ledger.reset();
  {
    SkipQueue<LedgerPlatform> q;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
      threads.emplace_back([&q, t] {
        auto ctx = q.make_ctx();
        pto::SplitMix64 rng(200 + t);
        for (int i = 0; i < 4000; ++i) {
          const auto v = static_cast<std::int32_t>(rng.next_below(64));
          switch (rng.next_below(4)) {
            case 0: q.push_pto(ctx, v); break;
            case 1: q.pop_min_pto(ctx); break;
            case 2: q.push_lf(ctx, v); break;
            default: q.pop_min_lf(ctx); break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  expect_ledger_settled();
}

// On simx a freed tower poisons its own lines and no neighbour's: the arena
// line-aligns every allocation, so the node carved right after a 1-level
// node starts on the next line. A free sized for a full tower would poison
// that neighbour too.
struct TowerNeighbours : SkipList<SimPlatform> {
  void probe() {
    std::uint64_t neighbour_uaf = 0;
    std::uint64_t freed_uaf = 0;
    pto::sim::run(1, pto::sim::Config{}, [&](unsigned) {
      Node* a = alloc_node(1, 1);
      Node* b = alloc_node(2, 1);
      free_node(a);
      const std::uint64_t before = pto::sim::uaf_count();
      (void)b->next[0].load();
      neighbour_uaf = pto::sim::uaf_count() - before;
      (void)a->next[0].load();
      freed_uaf = pto::sim::uaf_count() - before - neighbour_uaf;
      free_node(b);
    });
    EXPECT_EQ(neighbour_uaf, 0u);
    EXPECT_EQ(freed_uaf, 1u);
  }
};

TEST(SkipList, FreedTowerPoisonsOnlyItsOwnLines) {
  TowerNeighbours s;
  s.probe();
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
