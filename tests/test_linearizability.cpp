// Linearizability checking: first the checkers themselves (accept/reject
// hand-built histories), then real recorded histories from every set
// structure under deterministic concurrency in every PTO mode, and finally
// set/queue/mound histories recorded under explored (pct/rand) schedules
// with HTM fault injection — the Wing–Gong verifiers run on global-seq
// timestamps, which order observable events under any scheduling policy.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "ds/mound/mound.h"
#include "ds/queue/ms_queue.h"
#include "explore/explore.h"
#include "explore_util.h"
#include "linearizability.h"
#include "platform/sim_platform.h"
#include "set_test_util.h"
#include "sim/sim.h"

namespace {

using pto::SimPlatform;
namespace sim = pto::sim;
namespace svc = pto::service;
namespace xp = pto::explore;
namespace tu = pto::testutil;
using tu::SetOp;
using tu::SetOpKind;

// ---------------------------------------------------------------------------
// Checker self-tests
// ---------------------------------------------------------------------------

TEST(LinChecker, AcceptsSequentialHistory) {
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 1, true, 0, 10},
      {SetOpKind::kContains, 1, true, 20, 30},
      {SetOpKind::kRemove, 1, true, 40, 50},
      {SetOpKind::kContains, 1, false, 60, 70},
  };
  EXPECT_TRUE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, RejectsDoubleInsert) {
  // Two successful inserts of the same key, strictly ordered, no remove
  // between them: impossible for a set.
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 1, true, 0, 10},
      {SetOpKind::kInsert, 1, true, 20, 30},
  };
  EXPECT_FALSE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, AcceptsConcurrentInsertsOneWins) {
  // Overlapping inserts: one true, one false — fine in either order... the
  // false one must come second; both orders are allowed by timing.
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 1, true, 0, 100},
      {SetOpKind::kInsert, 1, false, 50, 90},
  };
  EXPECT_TRUE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, RejectsStaleRead) {
  // Insert completed long before the contains started, nothing removed it:
  // contains=false cannot be linearized.
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 7, true, 0, 10},
      {SetOpKind::kContains, 7, false, 50, 60},
  };
  EXPECT_FALSE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, AcceptsReadOverlappingRemove) {
  // The contains overlaps the remove: both answers are legal; false here.
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 7, true, 0, 10},
      {SetOpKind::kRemove, 7, true, 20, 60},
      {SetOpKind::kContains, 7, false, 30, 40},
  };
  EXPECT_TRUE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, RejectsFailedRemoveWhilePresent) {
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 3, true, 0, 10},
      {SetOpKind::kRemove, 3, false, 20, 30},
      {SetOpKind::kRemove, 3, true, 40, 50},
  };
  EXPECT_FALSE(tu::check_set_linearizability(h).linearizable);
}

TEST(LinChecker, KeysAreIndependent) {
  std::vector<SetOp> h = {
      {SetOpKind::kInsert, 1, true, 0, 10},
      {SetOpKind::kInsert, 2, true, 5, 15},
      {SetOpKind::kContains, 1, true, 20, 25},
      {SetOpKind::kContains, 2, true, 20, 25},
      {SetOpKind::kRemove, 1, true, 30, 35},
      {SetOpKind::kContains, 2, true, 40, 45},
  };
  auto r = tu::check_set_linearizability(h);
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.keys_checked, 2u);
}

// Spec-based checker self-tests (queue / min-PQ sequential specifications).

TEST(SpecChecker, QueueAcceptsFifo) {
  using Q = tu::QueueSpec;
  std::vector<tu::TimedOp<Q>> h = {
      {Q::enq(1), 0, 10},
      {Q::enq(2), 20, 30},
      {Q::deq(1), 40, 50},
      {Q::deq(2), 60, 70},
      {Q::deq(std::nullopt), 80, 90},
  };
  EXPECT_TRUE(tu::check_history<Q>(h));
}

TEST(SpecChecker, QueueRejectsLifo) {
  using Q = tu::QueueSpec;
  std::vector<tu::TimedOp<Q>> h = {
      {Q::enq(1), 0, 10},
      {Q::enq(2), 20, 30},
      {Q::deq(2), 40, 50},  // queue must yield 1 first
  };
  EXPECT_FALSE(tu::check_history<Q>(h));
}

TEST(SpecChecker, QueueAcceptsConcurrentEnqueueEitherOrder) {
  using Q = tu::QueueSpec;
  std::vector<tu::TimedOp<Q>> h = {
      {Q::enq(1), 0, 100},
      {Q::enq(2), 0, 100},  // overlaps: either order linearizes
      {Q::deq(2), 110, 120},
      {Q::deq(1), 130, 140},
  };
  EXPECT_TRUE(tu::check_history<Q>(h));
}

TEST(SpecChecker, QueueRejectsLostElement) {
  using Q = tu::QueueSpec;
  std::vector<tu::TimedOp<Q>> h = {
      {Q::enq(1), 0, 10},
      {Q::deq(std::nullopt), 20, 30},  // the element vanished
  };
  EXPECT_FALSE(tu::check_history<Q>(h));
}

TEST(SpecChecker, PQAcceptsMinOrder) {
  using P = tu::MinPQSpec;
  std::vector<tu::TimedOp<P>> h = {
      {P::insert(5), 0, 10},
      {P::insert(3), 20, 30},
      {P::extract(3), 40, 50},
      {P::extract(5), 60, 70},
      {P::extract(std::nullopt), 80, 90},
  };
  EXPECT_TRUE(tu::check_history<P>(h));
}

TEST(SpecChecker, PQRejectsNonMinExtract) {
  using P = tu::MinPQSpec;
  std::vector<tu::TimedOp<P>> h = {
      {P::insert(5), 0, 10},
      {P::insert(3), 20, 30},
      {P::extract(5), 40, 50},  // 3 is the minimum
  };
  EXPECT_FALSE(tu::check_history<P>(h));
}

TEST(SpecChecker, PQAcceptsExtractOverlappingInsert) {
  using P = tu::MinPQSpec;
  std::vector<tu::TimedOp<P>> h = {
      {P::insert(5), 0, 10},
      {P::insert(3), 20, 100},   // overlaps the extract
      {P::extract(5), 30, 40},   // legal: linearize extract before insert(3)
  };
  EXPECT_TRUE(tu::check_history<P>(h));
}

// ---------------------------------------------------------------------------
// Recorded histories from the real structures
// ---------------------------------------------------------------------------

/// A recorded history of `ops_per_thread` ops per vthread at `seed` under
/// the default schedule, over one set variant.
template <class A>
void record_and_check(A a, int threads, int range, int ops_per_thread,
                      int seed) {
  typename A::DS ds;
  sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  tu::check_set_history(ds, a, static_cast<unsigned>(threads), range,
                        ops_per_thread, cfg);
}

class SkiplistLin
    : public ::testing::TestWithParam<std::tuple<bool, int, int>> {};

TEST_P(SkiplistLin, RecordedHistoryLinearizable) {
  auto [pto_mode, threads, seed] = GetParam();
  record_and_check(svc::SkipAdapter<SimPlatform>{pto_mode}, threads, 24, 80,
                   seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkiplistLin,
    ::testing::Combine(::testing::Bool(), ::testing::Values(3, 6),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "pto" : "lf") + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

const char* const kBstModeNames[] = {"lf", "pto1", "pto2", "pto12"};
const char* const kHashModeNames[] = {"lf", "pto", "inplace"};

class BstLin : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BstLin, RecordedHistoryLinearizable) {
  auto [mode_i, threads, seed] = GetParam();
  using A = svc::BstAdapter<SimPlatform>;
  record_and_check(A{static_cast<A::Mode>(mode_i)}, threads, 24, 80, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BstLin,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // LF/PTO1/PTO2/PTO12
                       ::testing::Values(4, 8), ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(kBstModeNames[std::get<0>(info.param)]) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class HashLin : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HashLin, RecordedHistoryLinearizable) {
  auto [mode_i, threads, seed] = GetParam();
  using A = svc::HashAdapter<SimPlatform>;
  record_and_check(A{static_cast<A::Mode>(mode_i)}, threads, 24, 80, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashLin,
    ::testing::Combine(::testing::Values(0, 1, 2),  // LF/PTO/Inplace
                       ::testing::Values(4, 8), ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(kHashModeNames[std::get<0>(info.param)]) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class ListLin : public ::testing::TestWithParam<std::tuple<bool, int, int>> {};

TEST_P(ListLin, RecordedHistoryLinearizable) {
  auto [pto_mode, threads, seed] = GetParam();
  record_and_check(svc::ListAdapter<SimPlatform>{pto_mode}, threads, 16, 80,
                   seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListLin,
    ::testing::Combine(::testing::Bool(), ::testing::Values(3, 6),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "pto" : "lf") + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Explored schedules: set / queue / mound histories stay linearizable under
// adversarial pct+rand interleavings with mild HTM fault injection. Each
// structure sweeps PTO_EXPLORE_SEEDS seeds (default 32 here, per the
// nightly/smoke contract) across both adversarial policies.
// ---------------------------------------------------------------------------

TEST(ExploredLin, SkiplistSet) {
  for (const xp::Options& x :
       tu::sweep_policies(tu::test_seed(41), tu::explore_seeds(32), 0.02)) {
    PTO_TRACE_EXPLORE(x);
    pto::SkipList<SimPlatform> s;
    sim::Config cfg;
    cfg.seed = tu::test_seed(41);
    cfg.explore = x;
    tu::check_set_history(s, svc::SkipAdapter<SimPlatform>{true}, 3, 12, 40,
                          cfg);
    if (HasFatalFailure()) return;
  }
}

TEST(ExploredLin, MSQueue) {
  const unsigned threads = 3;
  for (const xp::Options& x :
       tu::sweep_policies(tu::test_seed(43), tu::explore_seeds(32), 0.02)) {
    PTO_TRACE_EXPLORE(x);
    pto::MSQueue<SimPlatform> q;
    std::vector<typename pto::MSQueue<SimPlatform>::ThreadCtx> ctxs;
    for (unsigned t = 0; t < threads; ++t) ctxs.push_back(q.make_ctx());
    // Host-serialized fibers: one shared history vector is safe.
    std::vector<tu::TimedOp<tu::QueueSpec>> hist;
    sim::Config cfg;
    cfg.seed = tu::test_seed(43);
    cfg.explore = x;
    auto res = sim::run(threads, cfg, [&](unsigned tid) {
      for (int i = 0; i < 7; ++i) {
        // Enqueue values are pairwise distinct (tid-tagged) so the spec's
        // state space stays small and FIFO violations are unambiguous.
        if (sim::rnd() % 2 == 0) {
          auto v = static_cast<std::int64_t>(tid) * 1000 + i;
          tu::record_timed<tu::QueueSpec>(hist, [&] {
            q.enqueue_pto(ctxs[tid], v);
            return tu::QueueSpec::enq(v);
          });
        } else {
          tu::record_timed<tu::QueueSpec>(hist, [&] {
            return tu::QueueSpec::deq(q.dequeue_pto(ctxs[tid]));
          });
        }
      }
    });
    ASSERT_EQ(res.uaf_count, 0u) << tu::note_failure(x, "ms_queue uaf");
    ASSERT_LE(hist.size(), 64u);
    ASSERT_TRUE(tu::check_history<tu::QueueSpec>(hist))
        << tu::note_failure(x, "ms_queue history not linearizable");
  }
}

TEST(ExploredLin, Mound) {
  const unsigned threads = 3;
  for (const xp::Options& x :
       tu::sweep_policies(tu::test_seed(47), tu::explore_seeds(32), 0.02)) {
    PTO_TRACE_EXPLORE(x);
    pto::Mound<SimPlatform> m(10);
    std::vector<typename pto::Mound<SimPlatform>::ThreadCtx> ctxs;
    for (unsigned t = 0; t < threads; ++t) ctxs.push_back(m.make_ctx());
    std::vector<tu::TimedOp<tu::MinPQSpec>> hist;
    sim::Config cfg;
    cfg.seed = tu::test_seed(47);
    cfg.explore = x;
    auto res = sim::run(threads, cfg, [&](unsigned tid) {
      for (int i = 0; i < 7; ++i) {
        if (sim::rnd() % 3 != 0) {  // bias toward inserts so extracts hit
          auto v = static_cast<std::int32_t>(tid) * 1000 + i;
          tu::record_timed<tu::MinPQSpec>(hist, [&] {
            m.insert_pto(ctxs[tid], v);
            return tu::MinPQSpec::insert(v);
          });
        } else {
          tu::record_timed<tu::MinPQSpec>(hist, [&] {
            auto got = m.extract_min_pto(ctxs[tid]);
            return tu::MinPQSpec::extract(
                got ? std::optional<std::int64_t>(*got) : std::nullopt);
          });
        }
      }
    });
    ASSERT_EQ(res.uaf_count, 0u) << tu::note_failure(x, "mound uaf");
    ASSERT_LE(hist.size(), 64u);
    ASSERT_TRUE(tu::check_history<tu::MinPQSpec>(hist))
        << tu::note_failure(x, "mound history not linearizable");
  }
}

}  // namespace
