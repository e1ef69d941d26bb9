// Michael-Scott queue: FIFO semantics, value conservation under concurrency,
// the lagging-tail protocol, and PTO equivalence.
#include <gtest/gtest.h>

#include <deque>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ds/queue/ms_queue.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::MSQueue;
using pto::SimPlatform;

enum class Mode { kLf, kPto };
const char* mode_name(Mode m) { return m == Mode::kLf ? "lf" : "pto"; }

template <class P>
void enq(MSQueue<P>& q, typename MSQueue<P>::ThreadCtx& c, Mode m,
         std::int64_t v) {
  if (m == Mode::kLf) {
    q.enqueue_lf(c, v);
  } else {
    q.enqueue_pto(c, v);
  }
}

template <class P>
std::optional<std::int64_t> deq(MSQueue<P>& q,
                                typename MSQueue<P>::ThreadCtx& c, Mode m) {
  return m == Mode::kLf ? q.dequeue_lf(c) : q.dequeue_pto(c);
}

class QueueSequential : public ::testing::TestWithParam<Mode> {};

TEST_P(QueueSequential, FifoOrder) {
  Mode m = GetParam();
  MSQueue<SimPlatform> q;
  auto ctx = q.make_ctx();
  std::deque<std::int64_t> model;
  pto::SplitMix64 rng(3 + static_cast<int>(m));
  for (int step = 0; step < 3000; ++step) {
    if (model.empty() || rng.next_percent() < 55) {
      auto v = static_cast<std::int64_t>(rng.next());
      enq(q, ctx, m, v);
      model.push_back(v);
    } else {
      auto got = deq(q, ctx, m);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, model.front());
      model.pop_front();
    }
  }
  EXPECT_EQ(q.size_slow(), model.size());
  while (!model.empty()) {
    auto got = deq(q, ctx, m);
    ASSERT_EQ(*got, model.front());
    model.pop_front();
  }
  EXPECT_FALSE(deq(q, ctx, m).has_value());
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, QueueSequential,
                         ::testing::Values(Mode::kLf, Mode::kPto),
                         [](const auto& i) { return mode_name(i.param); });

class QueueConcurrent
    : public ::testing::TestWithParam<std::tuple<Mode, int, int>> {};

// Producers enqueue tagged values; consumers dequeue. Checks: conservation
// (every enqueued value dequeued exactly once) and per-producer FIFO (the
// subsequence from one producer is dequeued in its enqueue order).
TEST_P(QueueConcurrent, ConservationAndPerProducerFifo) {
  auto [mode, threads, seed] = GetParam();
  const auto n = static_cast<unsigned>(threads);
  MSQueue<SimPlatform> q;
  std::vector<std::vector<std::int64_t>> popped(n);
  std::vector<int> enq_count(n, 0);
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  auto res = pto::sim::run(n, cfg, [&](unsigned tid) {
    auto ctx = q.make_ctx();
    for (int i = 0; i < 250; ++i) {
      if (pto::sim::rnd() % 2 == 0) {
        // Tag: high bits producer id, low bits sequence.
        auto v = (static_cast<std::int64_t>(tid) << 32) | enq_count[tid]++;
        enq(q, ctx, mode, v);
      } else if (auto got = deq(q, ctx, mode)) {
        popped[tid].push_back(*got);
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);

  // Drain the remainder.
  auto ctx = q.make_ctx();
  std::vector<std::int64_t> all;
  for (auto& v : popped) all.insert(all.end(), v.begin(), v.end());
  while (auto got = q.dequeue_lf(ctx)) all.push_back(*got);

  std::size_t expected = 0;
  for (unsigned t = 0; t < n; ++t) {
    expected += static_cast<std::size_t>(enq_count[t]);
  }
  ASSERT_EQ(all.size(), expected);
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "a value was dequeued twice";

  // Per-producer FIFO within each consumer's stream.
  for (unsigned c = 0; c < n; ++c) {
    std::vector<std::int64_t> last(n, -1);
    for (auto v : popped[c]) {
      auto prod = static_cast<unsigned>(v >> 32);
      auto seq = v & 0xFFFFFFFF;
      ASSERT_GT(seq, last[prod]) << "per-producer order violated";
      last[prod] = seq;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueConcurrent,
    ::testing::Combine(::testing::Values(Mode::kLf, Mode::kPto),
                       ::testing::Values(2, 4, 8), ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Queue, MixedModesInteroperate) {
  MSQueue<SimPlatform> q;
  pto::sim::Config cfg;
  cfg.seed = 23;
  std::vector<int> enq_totals(4, 0), deq_totals(4, 0);
  auto res = pto::sim::run(4, cfg, [&](unsigned tid) {
    auto ctx = q.make_ctx();
    Mode m = tid % 2 == 0 ? Mode::kLf : Mode::kPto;
    for (int i = 0; i < 300; ++i) {
      if (pto::sim::rnd() % 2 == 0) {
        enq(q, ctx, m, tid);
        ++enq_totals[tid];
      } else if (deq(q, ctx, m).has_value()) {
        ++deq_totals[tid];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  int enqueued = 0, dequeued = 0;
  for (int t = 0; t < 4; ++t) {
    enqueued += enq_totals[t];
    dequeued += deq_totals[t];
  }
  EXPECT_EQ(q.size_slow(), static_cast<std::size_t>(enqueued - dequeued));
}

TEST(Queue, PtoFastPathEliminatesCas) {
  MSQueue<SimPlatform> q;
  SiteDelta enq("queue.enqueue");
  SiteDelta deq("queue.dequeue");
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto ctx = q.make_ctx();
    for (int i = 0; i < 200; ++i) q.enqueue_pto(ctx, i);
    for (int i = 0; i < 200; ++i) q.dequeue_pto(ctx);
    EXPECT_EQ(enq.get().commits, 200u);
    EXPECT_EQ(deq.get().commits, 200u);
  });
  EXPECT_LE(res.totals().cas_ops, 8u);  // epoch bookkeeping only
}

TEST(Queue, FailureInjectionFallsBack) {
  MSQueue<SimPlatform> q;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta enq("queue.enqueue");
  pto::sim::run(2, cfg, [&](unsigned tid) {
    auto ctx = q.make_ctx();
    for (int i = 0; i < 200; ++i) {
      if (i % 2 == 0) {
        q.enqueue_pto(ctx, tid * 1000 + i);
      } else {
        q.dequeue_pto(ctx);
      }
    }
    EXPECT_EQ(enq.get().commits, 0u);
  });
  // Drain cleanly.
  auto ctx = q.make_ctx();
  while (q.dequeue_lf(ctx).has_value()) {
  }
  EXPECT_TRUE(q.empty());
}

TEST(Queue, NativePlatform) {
  MSQueue<pto::NativePlatform> q;
  auto ctx = q.make_ctx();
  for (int i = 0; i < 500; ++i) q.enqueue_pto(ctx, i);
  for (int i = 0; i < 500; ++i) {
    auto got = q.dequeue_pto(ctx);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, i);
  }
  EXPECT_FALSE(q.dequeue_pto(ctx).has_value());
}

}  // namespace
