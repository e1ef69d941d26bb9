// Fallback accounting: prefix() (core/prefix.h) alone decides what an
// attempt and a fallback are, so a site counts one fallback per operation
// that ran the original algorithm — not one per aborted attempt — and that
// fallback's span holds the algorithm's work, whatever the site's shape: a
// real slow path passed to prefix(), one prefix() that retries every abort
// cause, or a re-search loop around the attempt loop with its lock-free
// call under a FallbackScope.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>

#include "ds/queue/ms_queue.h"
#include "ds/skiplist/skipqueue.h"
#include "obs/obs.h"
#include "platform/sim_platform.h"
#include "service/adapters.h"
#include "sim/sim.h"
#include "site_delta.h"
#include "telemetry/prof.h"

namespace {

using pto::SimPlatform;
namespace obs = pto::obs;
namespace prof = pto::telemetry::prof;
namespace sim = pto::sim;
namespace svc = pto::service;

constexpr int kOps = 200;

/// Runs op(ctx, i) for i < n on one vthread of `ds`, with the fault model
/// killing every transaction and the counters, histogram and profiler taps
/// armed. Each op must reach a transaction: `site` then counts n fallbacks,
/// no commit and one abort per attempt, the thread's fallback count moves by
/// n, and the profiler's n fallback spans hold the work the fallbacks did.
template <class DS, class Op>
void expect_one_fallback_per_op(DS& ds, const char* site, int n, Op op) {
  SiteDelta d(site);
  obs::set_hist_on(true);
  prof::set_enabled(true);
  prof::reset();
  sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  std::uint64_t moved = 0;
  sim::run(1, cfg, [&](unsigned) {
    auto ctx = ds.make_ctx();
    const std::uint64_t fb0 = obs::fallbacks_now();
    for (int i = 0; i < n; ++i) op(ctx, i);
    moved = obs::fallbacks_now() - fb0;
  });
  prof::SpanProfile spans;
  for (const auto& sc : prof::snapshot()) {
    for (const auto& l : sc.sites) {
      if (l.site != site) continue;
      spans.count += l.fallback.count;
      for (unsigned c = 0; c < prof::kClassCount; ++c) {
        spans.classed[c] += l.fallback.classed[c];
      }
    }
  }
  prof::reset();
  prof::set_enabled(false);
  obs::set_hist_on(false);
  const pto::PrefixStats s = d.get();
  const auto un = static_cast<std::uint64_t>(n);
  EXPECT_EQ(s.fallbacks, un) << site;
  EXPECT_EQ(moved, un) << site;
  EXPECT_EQ(s.commits, 0u) << site;
  EXPECT_GE(s.attempts, un) << site;
  EXPECT_EQ(s.attempts, s.total_aborts()) << site;
  EXPECT_EQ(spans.count, un) << site;
  EXPECT_GT(spans.total(), 0u) << site << ": fallback spans hold no cycles";
}

/// Puts keys 0..n-1 through `a`, then deletes them: every op reaches a
/// transaction, and every one falls back.
template <class A>
void expect_set_counts_ops(A a, const char* put_site, const char* del_site,
                           int n = kOps) {
  typename A::DS ds;
  expect_one_fallback_per_op(ds, put_site, n, [&](auto& c, int k) {
    EXPECT_TRUE(a.put(ds, c, k)) << put_site << " " << k;
  });
  expect_one_fallback_per_op(ds, del_site, n, [&](auto& c, int k) {
    EXPECT_TRUE(a.del(ds, c, k)) << del_site << " " << k;
  });
  EXPECT_EQ(ds.size_slow(), 0u);
  EXPECT_TRUE(ds.check_invariants());
}

TEST(FallbackAccounting, SkipListCountsOps) {
  expect_set_counts_ops(svc::SkipAdapter<SimPlatform>{true},
                        "skiplist.insert", "skiplist.remove");
}

TEST(FallbackAccounting, ListCountsOps) {
  expect_set_counts_ops(svc::ListAdapter<SimPlatform>{true}, "list.insert",
                        "list.remove");
}

TEST(FallbackAccounting, BstPto1CountsOps) {
  using A = svc::BstAdapter<SimPlatform>;
  expect_set_counts_ops(A{A::Mode::kPto1}, "bst.insert.pto1",
                        "bst.remove.pto1");
}

TEST(FallbackAccounting, BstPto2CountsOps) {
  using A = svc::BstAdapter<SimPlatform>;
  expect_set_counts_ops(A{A::Mode::kPto2}, "bst.insert.pto2",
                        "bst.remove.pto2");
}

TEST(FallbackAccounting, HashInplaceCountsOps) {
  // Inserts and removes share one site.
  using A = svc::HashAdapter<SimPlatform>;
  expect_set_counts_ops(A{A::Mode::kPtoInplace}, "hash.update.inplace",
                        "hash.update.inplace");
}

TEST(FallbackAccounting, ArraySetCountsOps) {
  // 40 keys fit the adapter's 48-key set.
  expect_set_counts_ops(svc::ArraySetAdapter<SimPlatform>{}, "ptoset.update",
                        "ptoset.update", 40);
}

TEST(FallbackAccounting, MSQueueCountsOps) {
  pto::MSQueue<SimPlatform> q;
  expect_one_fallback_per_op(q, "queue.enqueue", kOps,
                             [&](auto& c, int i) { q.enqueue_pto(c, i); });
  expect_one_fallback_per_op(q, "queue.dequeue", kOps, [&](auto& c, int i) {
    EXPECT_EQ(q.dequeue_pto(c), std::optional<std::int64_t>(i));
  });
  EXPECT_EQ(q.size_slow(), 0u);
}

TEST(FallbackAccounting, SkipQueueCountsOps) {
  pto::SkipQueue<SimPlatform> q;
  expect_one_fallback_per_op(q, "skiplist.insert", kOps,
                             [&](auto& c, int i) { q.push_pto(c, i); });
  expect_one_fallback_per_op(q, "skipqueue.pop", kOps, [&](auto& c, int i) {
    EXPECT_EQ(q.pop_min_pto(c), std::optional<std::int32_t>(i));
  });
  EXPECT_TRUE(q.empty());
}

/// Runs op(ctx, i) for i < kOps on one vthread of `ds` with the fault model
/// killing 30% of transactional accesses. An op whose attempts committed on
/// a retry ran no fallback and counts none; one that never committed counts
/// exactly one.
template <class DS, class Op>
void expect_retried_commit_counts_none(DS& ds, const char* site, Op op) {
  SiteDelta d(site);
  sim::Config cfg;
  cfg.explore.fault_rate = 0.3;
  int retried = 0;
  sim::run(1, cfg, [&](unsigned) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < kOps; ++i) {
      const pto::PrefixStats before = d.get();
      op(ctx, i);
      const pto::PrefixStats s = d.get().zip(before, std::minus<>());
      if (s.commits == 1 && s.attempts > 1) ++retried;
      EXPECT_EQ(s.fallbacks, s.commits == 1 ? 0u : 1u)
          << site << " op " << i << ": " << s.attempts << " attempts";
    }
  });
  EXPECT_GT(retried, 0) << site << ": no op committed on a retry";
}

TEST(FallbackAccounting, RetriedCommitCountsNoFallback) {
  pto::SkipList<SimPlatform> sl;
  expect_retried_commit_counts_none(
      sl, "skiplist.insert", [&](auto& c, int k) { sl.insert_pto(c, k); });
  pto::SkipQueue<SimPlatform> q;
  sim::run(1, sim::Config{}, [&](unsigned) {
    auto c = q.make_ctx();
    for (int i = 0; i < kOps; ++i) q.push_lf(c, i);
  });
  expect_retried_commit_counts_none(
      q, "skipqueue.pop", [&](auto& c, int) { q.pop_min_pto(c); });
}

}  // namespace
