// pto::explore — adversarial schedule exploration and HTM fault injection.
//
// Covers, in order: env/token parsing, per-trial seed derivation, the
// acceptance criteria (PTO_SCHED=rr is bit-for-bit the plain dispatcher;
// replaying a pct:<seed> token reproduces the identical schedule), the
// dump -> replay pipeline the minimizer builds on, fault-injection
// properties (spurious aborts and capacity jitter surface, workload RNG
// streams stay untouched), and pto::check cleanliness of the real
// structures under explored schedules.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/check.h"
#include "core/prefix.h"
#include "ds/skiplist/skiplist.h"
#include "explore/explore.h"
#include "htm/txcode.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "explore_util.h"
#include "sim_util.h"

namespace {

using pto::Atom;
using pto::SimPlatform;
namespace sim = pto::sim;
namespace xp = pto::explore;
namespace tu = pto::testutil;

// ---------------------------------------------------------------------------
// Parsing and tokens
// ---------------------------------------------------------------------------

TEST(ExploreParse, SchedForms) {
  xp::Options o;
  EXPECT_TRUE(xp::parse_sched("rr", o));
  EXPECT_EQ(o.policy, xp::Policy::kRR);

  EXPECT_TRUE(xp::parse_sched("pct:7", o));
  EXPECT_EQ(o.policy, xp::Policy::kPCT);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.change_points, 3u);  // defaults preserved
  EXPECT_EQ(o.horizon, 100'000u);

  EXPECT_TRUE(xp::parse_sched("pct:9:5", o));
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.change_points, 5u);

  EXPECT_TRUE(xp::parse_sched("pct:9:5:5000", o));
  EXPECT_EQ(o.horizon, 5000u);

  EXPECT_TRUE(xp::parse_sched("rand:42", o));
  EXPECT_EQ(o.policy, xp::Policy::kRandom);
  EXPECT_EQ(o.seed, 42u);

  EXPECT_TRUE(xp::parse_sched("replay:/tmp/sched.txt", o));
  EXPECT_EQ(o.policy, xp::Policy::kReplay);
  EXPECT_EQ(o.replay_path, "/tmp/sched.txt");
}

TEST(ExploreParse, RejectsMalformedSched) {
  for (const char* bad : {"", "pct", "pct:", "pct:x", "pct:1:2:0",
                          "pct:1:99", "rand:", "rand:zz", "replay:",
                          "bogus", "rr:extra"}) {
    xp::Options o;
    o.seed = 123;  // must be left untouched on failure
    EXPECT_FALSE(xp::parse_sched(bad, o)) << "accepted: " << bad;
    EXPECT_EQ(o.seed, 123u) << "mutated by: " << bad;
  }
}

TEST(ExploreParse, Faults) {
  xp::Options o;
  EXPECT_TRUE(xp::parse_faults("9:0.01", o));
  EXPECT_EQ(o.fault_seed, 9u);
  EXPECT_DOUBLE_EQ(o.fault_rate, 0.01);

  for (const char* bad : {"", "9", "9:", ":0.5", "9:1.5", "9:-0.1", "x:0.5"}) {
    xp::Options b;
    EXPECT_FALSE(xp::parse_faults(bad, b)) << "accepted: " << bad;
  }
}

TEST(ExploreParse, TokenRoundTrips) {
  xp::Options o;
  o.policy = xp::Policy::kPCT;
  o.seed = 7;
  o.change_points = 4;
  o.horizon = 20'000;
  EXPECT_EQ(xp::token(o), "PTO_SCHED=pct:7:4:20000");

  o.fault_seed = 9;
  o.fault_rate = 0.01;
  std::string tok = xp::token(o);
  EXPECT_NE(tok.find("PTO_HTM_FAULTS=9:0.01"), std::string::npos) << tok;

  // The PTO_SCHED half of the token parses back to the same options.
  xp::Options back;
  ASSERT_TRUE(xp::parse_sched("pct:7:4:20000", back));
  EXPECT_EQ(back.seed, o.seed);
  EXPECT_EQ(back.change_points, o.change_points);
  EXPECT_EQ(back.horizon, o.horizon);
}

TEST(ExploreParse, DeriveSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(xp::derive_seed(1, 0), xp::derive_seed(1, 0));
  EXPECT_NE(xp::derive_seed(1, 0), xp::derive_seed(1, 1));
  EXPECT_NE(xp::derive_seed(1, 0), xp::derive_seed(2, 0));
}

// ---------------------------------------------------------------------------
// Workload harness: contended counter + per-op interleaving log
// ---------------------------------------------------------------------------

/// The observable outcome of one run: which thread executed each op (in host
/// serialization order — fibers run one at a time, so a plain vector works),
/// final per-thread clocks, and aggregate stats.
struct RunRecord {
  std::vector<unsigned> order;
  std::vector<std::uint64_t> clocks;
  std::uint64_t dispatches = 0;
  std::uint64_t total = 0;
};

RunRecord run_counter(unsigned threads, int ops, const xp::Options& x,
                      std::uint64_t seed = 1) {
  RunRecord r;
  // Runs are compared byte-for-byte, so each starts from pristine line
  // state: residual ownership from a previous run would flip hit/miss
  // costs and with them the schedule.
  sim::reset_memory();
  Atom<SimPlatform, std::uint64_t> counter;
  counter.init(0);
  sim::Config cfg;
  cfg.seed = seed;
  cfg.explore = x;
  auto res = sim::run(threads, cfg, [&](unsigned tid) {
    for (int i = 0; i < ops; ++i) {
      counter.fetch_add(1);
      r.order.push_back(tid);
    }
  });
  r.clocks = res.clocks;
  r.dispatches = res.totals().dispatches;
  r.total = counter.load(std::memory_order_relaxed);
  return r;
}

// Acceptance criterion: with PTO_SCHED=rr (or unset) the dispatcher is
// bit-for-bit the plain one — same clocks, same dispatch count, same
// interleaving as an Options-default (kEnv, no env) run.
TEST(ExploreRR, ByteIdenticalToPlainDispatcher) {
  ASSERT_EQ(std::getenv("PTO_SCHED"), nullptr);
  xp::Options dflt;  // kEnv, resolves to rr
  xp::Options rr;
  rr.policy = xp::Policy::kRR;
  RunRecord a = run_counter(4, 200, dflt);
  RunRecord b = run_counter(4, 200, rr);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.total, 800u);
  EXPECT_EQ(b.total, 800u);
}

TEST(ExplorePCT, PreemptsAndStaysCorrect) {
  xp::Options x;
  x.policy = xp::Policy::kPCT;
  x.seed = tu::test_seed(3);
  std::vector<std::uint64_t> sched;
  x.schedule_out = &sched;
  PTO_TRACE_EXPLORE(x);
  RunRecord r = run_counter(4, 200, x);
  EXPECT_EQ(r.total, 800u);          // atomicity survives the adversary
  EXPECT_FALSE(sched.empty());       // ... and the adversary actually acted
}

// Acceptance criterion: replaying a pct:<seed> token reproduces the
// identical schedule.
TEST(ExplorePCT, SameTokenSameSchedule) {
  for (unsigned i = 0; i < 4; ++i) {
    xp::Options x;
    x.policy = xp::Policy::kPCT;
    x.seed = xp::derive_seed(tu::test_seed(11), i);
    PTO_TRACE_EXPLORE(x);
    std::vector<std::uint64_t> s1, s2;
    x.schedule_out = &s1;
    RunRecord a = run_counter(4, 150, x);
    x.schedule_out = &s2;
    RunRecord b = run_counter(4, 150, x);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.clocks, b.clocks);
  }
}

TEST(ExplorePCT, DifferentSeedsExploreDifferentSchedules) {
  std::vector<std::vector<unsigned>> orders;
  for (unsigned i = 0; i < 4; ++i) {
    xp::Options x;
    x.policy = xp::Policy::kPCT;
    x.seed = xp::derive_seed(tu::test_seed(5), i);
    orders.push_back(run_counter(4, 150, x).order);
  }
  bool any_differ = false;
  for (std::size_t i = 1; i < orders.size(); ++i) {
    if (orders[i] != orders[0]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(ExploreRand, DeterministicPerSeedAndDiffersFromRR) {
  xp::Options x;
  x.policy = xp::Policy::kRandom;
  x.seed = tu::test_seed(17);
  PTO_TRACE_EXPLORE(x);
  RunRecord a = run_counter(4, 200, x);
  RunRecord b = run_counter(4, 200, x);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.total, 800u);

  xp::Options rr;
  rr.policy = xp::Policy::kRR;
  EXPECT_NE(a.order, run_counter(4, 200, rr).order);
}

// ---------------------------------------------------------------------------
// Dump -> replay (the minimizer's contract)
// ---------------------------------------------------------------------------

TEST(ExploreReplay, DumpedScheduleReplaysByteIdentically) {
  std::string path =
      ::testing::TempDir() + "/pto_sched_dump_" +
      std::to_string(::getpid()) + ".txt";
  xp::Options pct;
  pct.policy = xp::Policy::kPCT;
  pct.seed = tu::test_seed(23);
  PTO_TRACE_EXPLORE(pct);

  ASSERT_EQ(setenv("PTO_SCHED_DUMP", path.c_str(), 1), 0);
  RunRecord a = run_counter(3, 150, pct);
  ASSERT_EQ(unsetenv("PTO_SCHED_DUMP"), 0);

  xp::Options rep;
  rep.policy = xp::Policy::kReplay;
  rep.replay_path = path;
  RunRecord b = run_counter(3, 150, rep);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(b.total, 450u);
  std::remove(path.c_str());
}

TEST(ExploreReplay, MissingDecisionsFallBackToIncumbent) {
  // An empty decision list is a valid schedule: it degrades to "never
  // preempt", i.e. each thread runs to completion in dispatch order. This
  // is what lets the minimizer delta-debug decisions away.
  std::string path = ::testing::TempDir() + "/pto_sched_empty_" +
                     std::to_string(::getpid()) + ".txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# empty schedule\n", f);
    std::fclose(f);
  }
  xp::Options rep;
  rep.policy = xp::Policy::kReplay;
  rep.replay_path = path;
  RunRecord r = run_counter(3, 100, rep);
  EXPECT_EQ(r.total, 300u);
  // No preemptions: the order is 100 ops of one thread, then the next.
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(r.order[static_cast<std::size_t>(t) * 100 + i],
                static_cast<unsigned>(t));
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HTM fault injection
// ---------------------------------------------------------------------------

/// Transactional workload: prefix transactions over a strided counter array.
/// Each op increments kSpan counters on distinct cache lines inside one
/// prefix transaction (fallback: the same increments lock-free), so a
/// jittered write capacity below kSpan forces a capacity abort. The test
/// loop is the only sim::rnd() consumer, making the per-thread key streams
/// an exact witness that fault injection never touches the workload RNG.
constexpr int kSlots = 64;
constexpr int kSpan = 6;

struct TxRecord {
  sim::ThreadStats totals;
  std::vector<std::vector<std::int64_t>> keys;
  std::uint64_t sum = 0;
};

TxRecord run_txn(unsigned threads, int ops, const xp::Options& x) {
  TxRecord r;
  r.keys.resize(threads);
  sim::reset_memory();  // byte-compared runs start from pristine line state
  // Static storage: byte-compared runs must see the slots at the same
  // addresses — a per-call heap vector would shift line-sharing patterns
  // (and with them conflict/abort counts) between runs.
  alignas(64) static Atom<SimPlatform, std::uint64_t> slots[kSlots];
  for (auto& s : slots) s.init(0);
  sim::Config cfg;
  cfg.seed = 1;
  cfg.explore = x;
  auto res = sim::run(threads, cfg, [&](unsigned tid) {
    for (int i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % kSlots);
      r.keys[tid].push_back(k);
      auto bump = [&](auto&& rmw) {
        for (int j = 0; j < kSpan; ++j) {
          // Stride 8 slots (one line apart for 8-byte atoms) so the write
          // set spans kSpan distinct lines.
          rmw(slots[(k + j * 8) % kSlots]);
        }
        return true;
      };
      pto::prefix<SimPlatform>(
          pto::PrefixPolicy(2),
          [&] {
            return bump([](auto& s) {
              s.store(s.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
            });
          },
          [&] { return bump([](auto& s) { s.fetch_add(1); }); });
    }
  });
  r.totals = res.totals();
  for (auto& s : slots) r.sum += s.load(std::memory_order_relaxed);
  return r;
}

TEST(ExploreFaults, InjectsSpuriousAbortsDeterministically) {
  xp::Options x;  // rr schedule; faults are independent of the policy
  x.policy = xp::Policy::kRR;
  x.fault_seed = tu::test_seed(29);
  x.fault_rate = 0.05;
  PTO_TRACE_EXPLORE(x);
  TxRecord a = run_txn(4, 150, x);
  EXPECT_GT(a.totals.tx_aborts[pto::TX_ABORT_SPURIOUS], 0u);
  EXPECT_GT(a.totals.tx_commits, 0u);  // fallbacks kept the workload going
  EXPECT_EQ(a.sum, 4u * 150u * kSpan);  // every increment landed exactly once

  TxRecord b = run_txn(4, 150, x);
  EXPECT_EQ(a.totals.tx_aborts[pto::TX_ABORT_SPURIOUS],
            b.totals.tx_aborts[pto::TX_ABORT_SPURIOUS]);
  EXPECT_EQ(a.totals.tx_started, b.totals.tx_started);
}

TEST(ExploreFaults, CapacityJitterSurfacesCapacityAborts) {
  xp::Options x;
  x.policy = xp::Policy::kRR;
  x.fault_seed = tu::test_seed(31);
  x.fault_rate = 0.6;  // high rate: most transactions get a jittered budget
  PTO_TRACE_EXPLORE(x);
  TxRecord r = run_txn(4, 200, x);
  EXPECT_GT(r.totals.tx_aborts[pto::TX_ABORT_CAPACITY], 0u);
}

TEST(ExploreFaults, WorkloadRngStreamUntouched) {
  // The fault injector draws from a dedicated per-thread stream, so turning
  // it on must not change a single workload key.
  xp::Options off;
  off.policy = xp::Policy::kRR;
  xp::Options on = off;
  on.fault_seed = 99;
  on.fault_rate = 0.1;
  TxRecord a = run_txn(3, 100, off);
  TxRecord b = run_txn(3, 100, on);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_GT(b.totals.tx_aborts[pto::TX_ABORT_SPURIOUS], 0u);
}

// ---------------------------------------------------------------------------
// pto::check stays clean under explored schedules
// ---------------------------------------------------------------------------

TEST(ExploreCheck, SkiplistCleanUnderAdversarialSchedules) {
  // Two inputs: a PTO mix over 32 keys, and an LF update-only run over a
  // 2-key hot set, where a remover's cleanup search races same-key inserts.
  auto run_skiplist = [](unsigned threads, int ops, unsigned keys, bool lf,
                         const xp::Options& x) {
    pto::SkipList<SimPlatform> s;
    std::vector<typename pto::SkipList<SimPlatform>::ThreadCtx> ctxs;
    for (unsigned t = 0; t < threads; ++t) ctxs.push_back(s.make_ctx());
    sim::Config cfg;
    cfg.seed = 1;
    cfg.explore = x;
    auto res = sim::run(threads, cfg, [&](unsigned tid) {
      for (int i = 0; i < ops; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % keys);
        if (i % 2 == 0) {
          lf ? s.insert_lf(ctxs[tid], k) : s.insert_pto(ctxs[tid], k);
        } else {
          lf ? s.remove_lf(ctxs[tid], k) : s.remove_pto(ctxs[tid], k);
        }
      }
    });
    EXPECT_TRUE(s.check_invariants()) << tu::note_failure(x, "invariants");
    EXPECT_EQ(res.uaf_count, 0u) << tu::note_failure(x, "use after free");
  };
  // When the process is already env-armed (PTO_CHECK=...), leave the checker
  // on and its findings intact afterwards so the atexit report still covers
  // the whole binary; only a locally-enabled checker is torn back down.
  const bool was_on = pto::check::on();
  pto::check::set_enabled(true);
  pto::check::reset();
  for (const xp::Options& x :
       tu::sweep_policies(tu::test_seed(37), tu::explore_seeds(2), 0.02)) {
    PTO_TRACE_EXPLORE(x);
    run_skiplist(4, 120, 32, false, x);
    run_skiplist(8, 200, 2, true, x);
  }
  auto found = pto::check::findings();
  if (!was_on) {
    pto::check::set_enabled(false);
    pto::check::reset();
  }
  EXPECT_TRUE(found.empty()) << found.size() << " checker findings";
}

}  // namespace
