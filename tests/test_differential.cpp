// Property-based differential tests: every src/ds structure against an STL
// oracle, swept across explored schedules (rr / pct / rand) with HTM fault
// injection. Two tiers:
//
//   1. Exact differential — a single simulated thread runs a seeded random
//      op sequence and every result must equal the oracle's
//      (std::set / std::deque / std::priority_queue). Fault injection makes
//      the PTO fast paths abort and re-converge through their fallbacks;
//      the results must not change.
//   2. Concurrent conservation — threads run a partitioned workload under
//      adversarial schedules; afterwards global invariants must hold
//      (all-present/all-absent for sets, multiset + per-producer FIFO
//      conservation for the queue, multiset + sorted drain for the PQs,
//      exact min for the mindicator).
//
// Every failure prints the seed and the one-line replay token; the op log
// of the failing case is dumped for tier 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ds/mindicator/mindicator.h"
#include "ds/mound/mound.h"
#include "ds/queue/ms_queue.h"
#include "ds/skiplist/skipqueue.h"
#include "ds/tle/tle.h"
#include "explore/explore.h"
#include "explore_util.h"
#include "platform/sim_platform.h"
#include "service/adapters.h"
#include "sim/sim.h"
#include "sim_util.h"

namespace {

using pto::SimPlatform;
namespace sim = pto::sim;
namespace svc = pto::service;
namespace xp = pto::explore;
namespace tu = pto::testutil;

/// The schedule sweep every differential case runs under: the default rr
/// schedule plus pct/rand seeds with mild fault injection.
std::vector<xp::Options> full_sweep(std::uint64_t base_seed) {
  std::vector<xp::Options> all;
  xp::Options rr;
  rr.policy = xp::Policy::kRR;
  all.push_back(rr);
  auto adv = tu::sweep_policies(base_seed, tu::explore_seeds(), 0.02);
  all.insert(all.end(), adv.begin(), adv.end());
  return all;
}

// ---------------------------------------------------------------------------
// Tier 1: exact single-thread differential vs STL oracles
// ---------------------------------------------------------------------------

struct OpLogEntry {
  char kind;  // 'c'ontains / 'i'nsert / 'r'emove / 'e'nq / 'd'eq / 'x'tract
  std::int64_t key;
  std::int64_t got, want;
};

std::string dump_log(const std::vector<OpLogEntry>& log) {
  std::ostringstream os;
  os << "op log (last " << log.size() << "):";
  for (const auto& e : log) {
    os << "\n  " << e.kind << "(" << e.key << ") got=" << e.got
       << " want=" << e.want;
  }
  return os.str();
}

/// Run `ops` random set ops single-threaded under schedule options `x`,
/// checking each result against std::set. Returns true on success; on
/// mismatch `log` holds the trailing op window ending at the bad op.
template <class DoOp>
bool set_differential_x(int ops, int range, std::uint64_t seed,
                        const xp::Options& x, DoOp&& do_op,
                        std::vector<OpLogEntry>& log) {
  std::set<std::int64_t> oracle;
  bool ok = true;
  sim::Config cfg;
  cfg.seed = seed;
  cfg.explore = x;
  auto res = sim::run(1, cfg, [&](unsigned) {
    for (int i = 0; i < ops && ok; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % range);
      auto c = static_cast<unsigned>(sim::rnd() % 100);
      char kind = c < 30 ? 'c' : c < 65 ? 'i' : 'r';
      bool got = do_op(kind, k);
      bool want = kind == 'c'   ? oracle.count(k) == 1
                  : kind == 'i' ? oracle.insert(k).second
                                : oracle.erase(k) == 1;
      log.push_back({kind, k, got, want});
      if (log.size() > 16) log.erase(log.begin());
      if (got != want) ok = false;
    }
  });
  if (res.uaf_count != 0) ok = false;
  if (ok) log.clear();
  return ok;
}

/// Sweep one set structure (fresh instance per schedule) through the full
/// policy sweep.
template <class MakeDoOp>
void sweep_set_differential(const char* what, MakeDoOp&& make) {
  const std::uint64_t seed = tu::test_seed(101);
  for (const xp::Options& x : full_sweep(seed)) {
    PTO_TRACE_EXPLORE(x);
    std::vector<OpLogEntry> log;
    auto do_op = make();  // fresh structure + ctx per schedule
    bool ok = set_differential_x(400, 48, seed, x, *do_op, log);
    EXPECT_TRUE(ok) << tu::note_failure(
        x, std::string(what) + " diverged from std::set (seed " +
               std::to_string(seed) + ")\n" + dump_log(log));
    if (!ok) return;
  }
}

/// One set variant as a differential callable. It owns its structure and
/// ctx, so `make()` can hand it out on the heap to outlive the sim::run that
/// uses it.
template <class A>
struct SetOps {
  explicit SetOps(A adapter) : a(adapter) {}
  A a;
  typename A::DS s;
  typename A::Ctx ctx = s.make_ctx();
  bool operator()(char kind, std::int64_t k) {
    return kind == 'c'   ? a.get(s, ctx, k)
           : kind == 'i' ? a.put(s, ctx, k)
                         : a.del(s, ctx, k);
  }
};

template <class A>
auto ops_of(A a) {
  return [a] { return std::make_unique<SetOps<A>>(a); };
}

TEST(DiffSet, SkiplistLF) {
  sweep_set_differential("skiplist(lf)",
                         ops_of(svc::SkipAdapter<SimPlatform>{false}));
}

TEST(DiffSet, SkiplistPTO) {
  sweep_set_differential("skiplist(pto)",
                         ops_of(svc::SkipAdapter<SimPlatform>{true}));
}

TEST(DiffSet, HarrisListLF) {
  sweep_set_differential("harris_list(lf)",
                         ops_of(svc::ListAdapter<SimPlatform>{false}));
}

TEST(DiffSet, HarrisListPTO) {
  sweep_set_differential("harris_list(pto)",
                         ops_of(svc::ListAdapter<SimPlatform>{true}));
}

using BstMode = svc::BstAdapter<SimPlatform>::Mode;
using HashMode = svc::HashAdapter<SimPlatform>::Mode;

class DiffBst : public ::testing::TestWithParam<int> {};

TEST_P(DiffBst, MatchesStdSet) {
  sweep_set_differential(
      "ellen_bst", ops_of(svc::BstAdapter<SimPlatform>{
                       static_cast<BstMode>(GetParam())}));
}

std::string bst_mode_name(const ::testing::TestParamInfo<int>& info) {
  const char* n[] = {"lf", "pto1", "pto2", "pto12"};
  return n[info.param];
}

INSTANTIATE_TEST_SUITE_P(Modes, DiffBst, ::testing::Values(0, 1, 2, 3),
                         bst_mode_name);

class DiffHash : public ::testing::TestWithParam<int> {};

TEST_P(DiffHash, MatchesStdSet) {
  sweep_set_differential(
      "fset_hash", ops_of(svc::HashAdapter<SimPlatform>{
                       static_cast<HashMode>(GetParam())}));
}

std::string hash_mode_name(const ::testing::TestParamInfo<int>& info) {
  const char* n[] = {"lf", "pto", "inplace"};
  return n[info.param];
}

INSTANTIATE_TEST_SUITE_P(Modes, DiffHash, ::testing::Values(0, 1, 2),
                         hash_mode_name);

TEST(DiffSet, PTOArraySet) {
  sweep_set_differential("pto_array_set",
                         ops_of(svc::ArraySetAdapter<SimPlatform, 64>{}));
}

TEST(DiffSet, TleHashSet) {
  sweep_set_differential("tle(seq_hash_set)", [] {
    struct F {
      pto::TLE<SimPlatform, pto::SeqHashSet<SimPlatform>> t{256};
      bool operator()(char kind, std::int64_t k) {
        return kind == 'c'
                   ? t.execute([&](auto& s) { return s.contains(k); })
               : kind == 'i' ? t.execute([&](auto& s) { return s.insert(k); })
                             : t.execute([&](auto& s) { return s.remove(k); });
      }
    };
    return std::make_unique<F>();
  });
}

/// FIFO queue vs std::deque, single thread, full sweep.
TEST(DiffQueue, MSQueueMatchesDeque) {
  const std::uint64_t seed = tu::test_seed(103);
  for (const xp::Options& x : full_sweep(seed)) {
    for (bool pto_mode : {false, true}) {
      PTO_TRACE_EXPLORE(x);
      SCOPED_TRACE(pto_mode ? "pto" : "lf");
      pto::MSQueue<SimPlatform> q;
      auto ctx = q.make_ctx();
      std::deque<std::int64_t> oracle;
      std::vector<OpLogEntry> log;
      bool ok = true;
      sim::Config cfg;
      cfg.seed = seed;
      cfg.explore = x;
      sim::run(1, cfg, [&](unsigned) {
        for (int i = 0; i < 400 && ok; ++i) {
          auto v = static_cast<std::int64_t>(sim::rnd() % 1000);
          if (sim::rnd() % 2 == 0) {
            if (pto_mode) {
              q.enqueue_pto(ctx, v);
            } else {
              q.enqueue_lf(ctx, v);
            }
            oracle.push_back(v);
            log.push_back({'e', v, v, v});
          } else {
            auto got = pto_mode ? q.dequeue_pto(ctx) : q.dequeue_lf(ctx);
            std::optional<std::int64_t> want;
            if (!oracle.empty()) {
              want = oracle.front();
              oracle.pop_front();
            }
            log.push_back({'d', 0, got.value_or(-1), want.value_or(-1)});
            if (got != want) ok = false;
          }
          if (log.size() > 16) log.erase(log.begin());
        }
      });
      ASSERT_TRUE(ok) << tu::note_failure(
          x, std::string("ms_queue(") + (pto_mode ? "pto" : "lf") +
                 ") diverged from std::deque\n" + dump_log(log));
    }
  }
}

/// Min-PQs vs std::priority_queue (min-heap), single thread, full sweep.
template <class Push, class Pop>
void pq_differential(const char* what, const xp::Options& x,
                     std::uint64_t seed, Push&& push, Pop&& pop) {
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      std::greater<>> oracle;
  std::vector<OpLogEntry> log;
  bool ok = true;
  sim::Config cfg;
  cfg.seed = seed;
  cfg.explore = x;
  sim::run(1, cfg, [&](unsigned) {
    for (int i = 0; i < 300 && ok; ++i) {
      auto v = static_cast<std::int32_t>(sim::rnd() % 1000);
      if (sim::rnd() % 2 == 0) {
        push(v);
        oracle.push(v);
        log.push_back({'i', v, v, v});
      } else {
        std::optional<std::int32_t> got = pop();
        std::optional<std::int32_t> want;
        if (!oracle.empty()) {
          want = oracle.top();
          oracle.pop();
        }
        log.push_back({'x', 0, got.value_or(-1), want.value_or(-1)});
        if (got != want) ok = false;
      }
      if (log.size() > 16) log.erase(log.begin());
    }
  });
  ASSERT_TRUE(ok) << tu::note_failure(
      x, std::string(what) + " diverged from std::priority_queue\n" +
             dump_log(log));
}

TEST(DiffPQ, MoundMatchesPriorityQueue) {
  const std::uint64_t seed = tu::test_seed(107);
  for (const xp::Options& x : full_sweep(seed)) {
    for (bool pto_mode : {false, true}) {
      PTO_TRACE_EXPLORE(x);
      SCOPED_TRACE(pto_mode ? "pto" : "lf");
      pto::Mound<SimPlatform> m(10);
      auto ctx = m.make_ctx();
      pq_differential(
          "mound", x, seed,
          [&](std::int32_t v) {
            pto_mode ? m.insert_pto(ctx, v) : m.insert_lf(ctx, v);
          },
          [&] {
            return pto_mode ? m.extract_min_pto(ctx) : m.extract_min_lf(ctx);
          });
    }
  }
}

TEST(DiffPQ, SkipQueueMatchesPriorityQueue) {
  const std::uint64_t seed = tu::test_seed(109);
  for (const xp::Options& x : full_sweep(seed)) {
    for (bool pto_mode : {false, true}) {
      PTO_TRACE_EXPLORE(x);
      SCOPED_TRACE(pto_mode ? "pto" : "lf");
      pto::SkipQueue<SimPlatform> q;
      auto ctx = q.make_ctx();
      pq_differential(
          "skipqueue", x, seed,
          [&](std::int32_t v) {
            pto_mode ? q.push_pto(ctx, v) : q.push_lf(ctx, v);
          },
          [&] { return pto_mode ? q.pop_min_pto(ctx) : q.pop_min_lf(ctx); });
    }
  }
}

// ---------------------------------------------------------------------------
// Tier 2: concurrent conservation under adversarial schedules
// ---------------------------------------------------------------------------

/// Sets: each thread owns a disjoint key range; after a concurrent insert
/// phase every key must be present, after a concurrent remove phase none.
template <class A>
void concurrent_set_conservation(const char* what, A a) {
  constexpr unsigned kThreads = 4;
  constexpr std::int64_t kPerThread = 24;
  for (const xp::Options& x : full_sweep(tu::test_seed(211))) {
    PTO_TRACE_EXPLORE(x);
    auto s = std::make_unique<typename A::DS>();
    std::vector<typename A::Ctx> ctxs;
    for (unsigned t = 0; t < kThreads; ++t) ctxs.push_back(s->make_ctx());
    tu::SimBarrier bar(kThreads);
    std::vector<int> present_failures(kThreads, 0),
        absent_failures(kThreads, 0);
    sim::Config cfg;
    cfg.seed = tu::test_seed(211);
    cfg.explore = x;
    auto res = sim::run(kThreads, cfg, [&](unsigned tid) {
      auto& ctx = ctxs[tid];
      std::int64_t lo = static_cast<std::int64_t>(tid) * kPerThread;
      for (std::int64_t k = lo; k < lo + kPerThread; ++k) a.put(*s, ctx, k);
      bar.wait();
      // Every key — mine and everyone else's — must now be present.
      for (std::int64_t k = 0; k < kThreads * kPerThread; ++k) {
        if (!a.get(*s, ctx, k)) ++present_failures[tid];
      }
      bar.wait();
      for (std::int64_t k = lo; k < lo + kPerThread; ++k) a.del(*s, ctx, k);
      bar.wait();
      for (std::int64_t k = 0; k < kThreads * kPerThread; ++k) {
        if (a.get(*s, ctx, k)) ++absent_failures[tid];
      }
    });
    ASSERT_EQ(res.uaf_count, 0u) << tu::note_failure(x, what);
    for (unsigned t = 0; t < kThreads; ++t) {
      EXPECT_EQ(present_failures[t], 0) << tu::note_failure(
          x, std::string(what) + ": keys missing after insert phase");
      EXPECT_EQ(absent_failures[t], 0) << tu::note_failure(
          x, std::string(what) + ": keys alive after remove phase");
    }
  }
}

TEST(DiffConcurrent, SkiplistConservation) {
  concurrent_set_conservation("skiplist(pto)",
                              svc::SkipAdapter<SimPlatform>{true});
}

TEST(DiffConcurrent, BstConservation) {
  concurrent_set_conservation("ellen_bst(pto12)",
                              svc::BstAdapter<SimPlatform>{BstMode::kPto12});
}

TEST(DiffConcurrent, HashConservation) {
  concurrent_set_conservation("fset_hash(pto)",
                              svc::HashAdapter<SimPlatform>{HashMode::kPto});
}

/// Queue: producers enqueue tagged values; consumers + final drain must see
/// exactly the enqueued multiset, in per-producer FIFO order.
TEST(DiffConcurrent, MSQueueConservation) {
  constexpr unsigned kThreads = 4;  // 2 producers, 2 consumers
  constexpr int kPerProducer = 60;
  for (const xp::Options& x : full_sweep(tu::test_seed(223))) {
    PTO_TRACE_EXPLORE(x);
    pto::MSQueue<SimPlatform> q;
    std::vector<pto::MSQueue<SimPlatform>::ThreadCtx> ctxs;
    for (unsigned t = 0; t < kThreads; ++t) ctxs.push_back(q.make_ctx());
    std::vector<std::vector<std::int64_t>> popped(kThreads);
    sim::Config cfg;
    cfg.seed = tu::test_seed(223);
    cfg.explore = x;
    auto res = sim::run(kThreads, cfg, [&](unsigned tid) {
      if (tid < 2) {
        for (int i = 0; i < kPerProducer; ++i) {
          q.enqueue_pto(ctxs[tid], static_cast<std::int64_t>(tid) * 10000 + i);
        }
      } else {
        for (int i = 0; i < kPerProducer; ++i) {
          if (auto v = q.dequeue_pto(ctxs[tid])) {
            popped[tid].push_back(*v);
          }
        }
      }
    });
    ASSERT_EQ(res.uaf_count, 0u) << tu::note_failure(x, "ms_queue uaf");
    // Host-side drain of the remainder (outside any simulation the queue
    // degenerates to raw accesses, which is fine single-threaded).
    sim::run(1, cfg, [&](unsigned) {
      while (auto v = q.dequeue_lf(ctxs[0])) popped[0].push_back(*v);
    });
    std::vector<std::int64_t> all;
    for (auto& p : popped) all.insert(all.end(), p.begin(), p.end());
    std::vector<std::int64_t> want;
    for (std::int64_t t = 0; t < 2; ++t) {
      for (int i = 0; i < kPerProducer; ++i) want.push_back(t * 10000 + i);
    }
    std::vector<std::int64_t> got = all;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << tu::note_failure(
        x, "ms_queue lost or duplicated elements");
    // Per-producer FIFO: within each consumer's stream (and the drain),
    // values from one producer must appear in increasing order.
    for (unsigned t = 0; t < kThreads; ++t) {
      std::int64_t last[2] = {-1, -1};
      for (std::int64_t v : popped[t]) {
        auto p = static_cast<std::size_t>(v / 10000);
        EXPECT_LT(last[p], v) << tu::note_failure(
            x, "ms_queue per-producer FIFO violated");
        last[p] = v;
      }
    }
  }
}

/// PQs: concurrent push of distinct values, then a single-thread drain must
/// be sorted and conserve the multiset.
template <class MakePQ>
void concurrent_pq_conservation(const char* what, MakePQ&& make) {
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 40;
  for (const xp::Options& x : full_sweep(tu::test_seed(227))) {
    PTO_TRACE_EXPLORE(x);
    auto pq = make(kThreads);
    tu::SimBarrier bar(kThreads);
    std::vector<std::int32_t> drained;
    sim::Config cfg;
    cfg.seed = tu::test_seed(227);
    cfg.explore = x;
    auto res = sim::run(kThreads, cfg, [&](unsigned tid) {
      for (int i = 0; i < kPerThread; ++i) {
        pq->push(tid, static_cast<std::int32_t>(tid) * 10000 + i);
      }
      bar.wait();
      if (tid == 0) {
        while (auto v = pq->pop(0)) drained.push_back(*v);
      }
    });
    ASSERT_EQ(res.uaf_count, 0u) << tu::note_failure(x, what);
    EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()))
        << tu::note_failure(x, std::string(what) + " drain not sorted");
    std::vector<std::int32_t> got = drained;
    std::sort(got.begin(), got.end());
    std::vector<std::int32_t> want;
    for (std::int32_t t = 0; t < static_cast<std::int32_t>(kThreads); ++t) {
      for (int i = 0; i < kPerThread; ++i) want.push_back(t * 10000 + i);
    }
    EXPECT_EQ(got, want) << tu::note_failure(
        x, std::string(what) + " lost or duplicated elements");
  }
}

TEST(DiffConcurrent, MoundConservation) {
  concurrent_pq_conservation("mound(pto)", [](unsigned threads) {
    struct PQ {
      pto::Mound<SimPlatform> m{12};
      std::vector<pto::Mound<SimPlatform>::ThreadCtx> ctxs;
      void push(unsigned t, std::int32_t v) { m.insert_pto(ctxs[t], v); }
      std::optional<std::int32_t> pop(unsigned t) {
        return m.extract_min_pto(ctxs[t]);
      }
    };
    auto pq = std::make_unique<PQ>();
    for (unsigned t = 0; t < threads; ++t) pq->ctxs.push_back(pq->m.make_ctx());
    return pq;
  });
}

TEST(DiffConcurrent, SkipQueueConservation) {
  concurrent_pq_conservation("skipqueue(pto)", [](unsigned threads) {
    struct PQ {
      pto::SkipQueue<SimPlatform> q;
      std::vector<pto::SkipQueue<SimPlatform>::ThreadCtx> ctxs;
      void push(unsigned t, std::int32_t v) { q.push_pto(ctxs[t], v); }
      std::optional<std::int32_t> pop(unsigned t) {
        return q.pop_min_pto(ctxs[t]);
      }
    };
    auto pq = std::make_unique<PQ>();
    for (unsigned t = 0; t < threads; ++t) pq->ctxs.push_back(pq->q.make_ctx());
    return pq;
  });
}

/// Mindicator: after all threads arrive and meet at a barrier, query() must
/// be the exact minimum; after all depart, kEmpty.
TEST(DiffConcurrent, MindicatorExactMin) {
  constexpr unsigned kThreads = 4;
  for (const xp::Options& x : full_sweep(tu::test_seed(229))) {
    PTO_TRACE_EXPLORE(x);
    pto::Mindicator<SimPlatform> m(16);
    tu::SimBarrier bar(kThreads);
    std::vector<std::int32_t> vals(kThreads);
    std::vector<int> min_failures(kThreads, 0), empty_failures(kThreads, 0);
    sim::Config cfg;
    cfg.seed = tu::test_seed(229);
    cfg.explore = x;
    sim::run(kThreads, cfg, [&](unsigned tid) {
      vals[tid] = static_cast<std::int32_t>(sim::rnd() % 1000);
      m.arrive_pto(tid, vals[tid]);
      bar.wait();
      std::int32_t want = *std::min_element(vals.begin(), vals.end());
      if (m.query() != want) ++min_failures[tid];
      bar.wait();
      m.depart_pto(tid);
      bar.wait();
      if (m.query() != pto::Mindicator<SimPlatform>::kEmpty) {
        ++empty_failures[tid];
      }
    });
    for (unsigned t = 0; t < kThreads; ++t) {
      EXPECT_EQ(min_failures[t], 0) << tu::note_failure(
          x, "mindicator query != exact min at quiescence");
      EXPECT_EQ(empty_failures[t], 0) << tu::note_failure(
          x, "mindicator not empty after all departed");
    }
  }
}

}  // namespace
