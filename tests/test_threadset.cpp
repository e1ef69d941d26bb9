// ThreadSet unit tests: word-boundary behavior, iteration order, and
// equivalence with the single-uint64_t bitmask semantics the simulator used
// before the 1024-thread scale-out (the "oracle" tests). The simulator's
// compact per-line sets (sim::internal::LineSet) are checked against
// ThreadSet itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/threadset.h"
#include "sim/runtime_internal.h"
#include "sim/sim.h"

using pto::ThreadSet;
using pto::kMaxThreads;
using pto::kThreadWords;

namespace {

unsigned words_for(unsigned nthreads) { return (nthreads + 63) / 64; }

std::vector<unsigned> collect(const ThreadSet& s, unsigned nw) {
  std::vector<unsigned> out;
  s.for_each(nw, [&](unsigned t) { out.push_back(t); });
  return out;
}

}  // namespace

TEST(ThreadSet, SetTestClearAcrossWordBoundaries) {
  ThreadSet s;
  for (unsigned tid : {0u, 63u, 64u, 65u, 127u, 128u, kMaxThreads - 1}) {
    EXPECT_FALSE(s.test(tid)) << tid;
    s.set(tid);
    EXPECT_TRUE(s.test(tid)) << tid;
  }
  // Setting 64 must not touch word 0, and clearing 63 must not touch word 1.
  s.clear(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(65));
  s.clear(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_TRUE(s.test(65));
  EXPECT_TRUE(s.test(kMaxThreads - 1));
}

TEST(ThreadSet, EmptyAndResetRespectWordCount) {
  ThreadSet s;
  EXPECT_TRUE(s.empty(1));
  EXPECT_TRUE(s.empty(kThreadWords));
  s.set(70);
  // A single-word view cannot see word 1; the two-word view can.
  EXPECT_TRUE(s.empty(1));
  EXPECT_FALSE(s.empty(2));
  s.reset(1);  // only clears word 0
  EXPECT_FALSE(s.empty(2));
  s.reset(2);
  EXPECT_TRUE(s.empty(kThreadWords));
}

TEST(ThreadSet, IterationIsAscendingAcrossWords) {
  ThreadSet s;
  const std::vector<unsigned> tids = {3, 63, 64, 65, 130, 200, 1023};
  for (unsigned t : tids) s.set(t);
  EXPECT_EQ(collect(s, kThreadWords), tids);
  // A narrower word count truncates at the word boundary, never mid-word.
  EXPECT_EQ(collect(s, 2), (std::vector<unsigned>{3, 63, 64, 65}));
}

TEST(ThreadSet, ForEachOtherSkipsOnlySelf) {
  ThreadSet s;
  for (unsigned t : {10u, 64u, 65u, 200u}) s.set(t);
  std::vector<unsigned> out;
  s.for_each_other(64, words_for(256), [&](unsigned t) { out.push_back(t); });
  EXPECT_EQ(out, (std::vector<unsigned>{10, 65, 200}));
  // Self not a member: visits everything.
  out.clear();
  s.for_each_other(63, words_for(256), [&](unsigned t) { out.push_back(t); });
  EXPECT_EQ(out, (std::vector<unsigned>{10, 64, 65, 200}));
}

TEST(ThreadSet, AnyOtherMatchesMaskSemantics) {
  for (unsigned self : {0u, 63u, 64u, 65u, 1023u}) {
    ThreadSet s;
    const unsigned nw = kThreadWords;
    EXPECT_FALSE(s.any_other(self, nw)) << self;
    s.set(self);
    EXPECT_FALSE(s.any_other(self, nw)) << self;  // only self present
    const unsigned other = self == 0 ? 1 : self - 1;
    s.set(other);
    EXPECT_TRUE(s.any_other(self, nw)) << self;
    s.clear(other);
    EXPECT_FALSE(s.any_other(self, nw)) << self;
  }
}

TEST(ThreadSet, AssignSingleDropsEveryOtherMember) {
  ThreadSet s;
  for (unsigned t : {0u, 63u, 64u, 500u}) s.set(t);
  s.assign_single(65, kThreadWords);
  EXPECT_EQ(collect(s, kThreadWords), std::vector<unsigned>{65});
}

TEST(ThreadSet, PopcountAndFirst) {
  ThreadSet s;
  EXPECT_EQ(s.popcount(kThreadWords), 0u);
  EXPECT_EQ(s.first(kThreadWords), kMaxThreads);  // empty sentinel
  s.set(100);
  s.set(64);
  s.set(1000);
  EXPECT_EQ(s.popcount(kThreadWords), 3u);
  EXPECT_EQ(s.first(kThreadWords), 64u);
  s.clear(64);
  EXPECT_EQ(s.first(kThreadWords), 100u);
}

TEST(ThreadSet, SetFirstNBoundaries) {
  for (unsigned n : {1u, 63u, 64u, 65u, 128u, 1024u}) {
    ThreadSet s;
    s.set_first_n(n, kThreadWords);
    EXPECT_EQ(s.popcount(kThreadWords), n) << n;
    EXPECT_TRUE(s.test(n - 1)) << n;
    if (n < kMaxThreads) {
      EXPECT_FALSE(s.test(n)) << n;
    }
    EXPECT_EQ(s.first(kThreadWords), 0u) << n;
  }
}

// Oracle test: with nw == 1 every operation must agree with the plain
// uint64_t bitmask arithmetic the simulator's line masks used before the
// scale-out — that equivalence is what the golden-cycle tests lean on.
TEST(ThreadSet, SingleWordMatchesUint64Oracle) {
  std::uint64_t oracle = 0;
  ThreadSet s;
  // A deterministic pseudo-random op sequence over tids 0..63.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 2000; ++step) {
    const unsigned tid = static_cast<unsigned>(next() % 64);
    switch (next() % 4) {
      case 0:
        oracle |= std::uint64_t{1} << tid;
        s.set(tid);
        break;
      case 1:
        oracle &= ~(std::uint64_t{1} << tid);
        s.clear(tid);
        break;
      case 2:
        oracle = std::uint64_t{1} << tid;  // the old exclusive-take
        s.assign_single(tid, 1);
        break;
      case 3: {
        // Victims loop: iterate others exactly as the old ctzll loop did.
        std::vector<unsigned> expect;
        std::uint64_t m = oracle & ~(std::uint64_t{1} << tid);
        while (m != 0) {
          expect.push_back(static_cast<unsigned>(__builtin_ctzll(m)));
          m &= m - 1;
        }
        std::vector<unsigned> got;
        s.for_each_other(tid, 1, [&](unsigned t) { got.push_back(t); });
        ASSERT_EQ(got, expect) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(s.test(tid), (oracle >> tid) & 1);
    ASSERT_EQ(s.empty(1), oracle == 0);
    ASSERT_EQ(s.any_other(tid, 1),
              (oracle & ~(std::uint64_t{1} << tid)) != 0);
    ASSERT_EQ(s.popcount(1),
              static_cast<unsigned>(__builtin_popcountll(oracle)));
    if (oracle != 0) {
      ASSERT_EQ(s.first(1), static_cast<unsigned>(__builtin_ctzll(oracle)));
    }
  }
}

// Oracle test for the simulator's per-line sets: a LineState's sharer and
// tx-reader views must agree with two ThreadSets through one random op
// sequence, at the word counts of a 64-, a 128- and a 1024-vthread run, for
// every tid (ThreadSet also reads and writes a tid past the word count in
// place, so LineSet must too). Both views share one HighWords block.
TEST(LineSet, MatchesThreadSetOracleAtEveryWidth) {
  namespace si = pto::sim::internal;
  for (unsigned nw : {1u, 2u, kThreadWords}) {
    pto::sim::reset_memory();
    si::LineState line;
    ThreadSet oracle[2];
    std::uint64_t rng = 0x9E3779B97F4A7C15ull * (nw + 1);
    auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int step = 0; step < 20000; ++step) {
      const unsigned which = static_cast<unsigned>(next() & 1);
      si::LineSet s = which == 0 ? line.sharers() : line.tx_readers();
      ThreadSet& o = oracle[which];
      // Mostly tids inside the word count, sometimes any tid at all.
      const unsigned span = next() % 4 == 0 ? kMaxThreads : nw * 64;
      const unsigned tid = static_cast<unsigned>(next() % span);
      switch (next() % 6) {
        case 0:
        case 1:
          o.set(tid);
          s.set(tid);
          break;
        case 2:
          o.clear(tid);
          s.clear(tid);
          break;
        case 3:
          o.reset(nw);
          s.reset(nw);
          break;
        case 4:
          o.assign_single(tid, nw);
          s.assign_single(tid, nw);
          break;
        case 5: {
          std::vector<unsigned> expect, got;
          o.for_each_other(tid, nw, [&](unsigned t) { expect.push_back(t); });
          s.for_each_other(tid, nw, [&](unsigned t) { got.push_back(t); });
          ASSERT_EQ(got, expect) << "nw " << nw << " step " << step;
          break;
        }
      }
      ASSERT_EQ(s.test(tid), o.test(tid)) << "nw " << nw << " step " << step;
      ASSERT_EQ(s.any_other(tid, nw), o.any_other(tid, nw))
          << "nw " << nw << " step " << step;
      if (step % 64 == 0) {
        for (unsigned t = 0; t < kMaxThreads; ++t) {
          ASSERT_EQ(line.sharers().test(t), oracle[0].test(t)) << t;
          ASSERT_EQ(line.tx_readers().test(t), oracle[1].test(t)) << t;
        }
      }
    }
    EXPECT_EQ(pto::sim::internal::g_mem.lines.high_words_used(), 1u) << nw;
  }
  pto::sim::reset_memory();
}
