// Generic test harnesses for the sets (skiplist, BST, hash table, list).
// Each takes a structure and a service adapter (service/adapters.h), which
// names the variant it runs; one that mixes variants takes an adapter per
// thread.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "explore_util.h"
#include "linearizability.h"
#include "service/adapters.h"
#include "sim/sim.h"

namespace pto::testutil {

/// Random insert/remove/lookup sequence checked against std::set, run
/// outside any simulation (host mode: hooks degrade to raw accesses).
template <class A>
void sequential_model_check(typename A::DS& ds, A a, int range, int steps,
                            std::uint64_t seed) {
  auto ctx = ds.make_ctx();
  std::set<std::int64_t> model;
  SplitMix64 rng(seed);
  for (int i = 0; i < steps; ++i) {
    std::int64_t k = static_cast<std::int64_t>(rng.next_below(range));
    unsigned action = rng.next_percent();
    if (action < 40) {
      ASSERT_EQ(a.put(ds, ctx, k), model.insert(k).second)
          << "step " << i << " insert " << k;
    } else if (action < 80) {
      ASSERT_EQ(a.del(ds, ctx, k), model.erase(k) == 1)
          << "step " << i << " remove " << k;
    } else {
      ASSERT_EQ(a.get(ds, ctx, k), model.count(k) == 1)
          << "step " << i << " contains " << k;
    }
  }
  EXPECT_EQ(ds.size_slow(), model.size());
  EXPECT_TRUE(ds.check_invariants());
  for (std::int64_t k = 0; k < range; ++k) {
    ASSERT_EQ(a.get(ds, ctx, k), model.count(k) == 1) << "final " << k;
  }
}

/// The check after a concurrent run: per key, successful inserts and removes
/// must strictly alternate (starting with an insert), so the net count over
/// threads is 0 or 1 and must equal the key's final membership, read through
/// `a`. Any atomicity violation (lost update, double insert) breaks this.
template <class A>
void expect_net_membership(typename A::DS& ds, A a,
                           const std::vector<std::vector<int>>& net,
                           int range) {
  auto ctx = ds.make_ctx();
  std::size_t present = 0;
  for (int k = 0; k < range; ++k) {
    int total = 0;
    for (const auto& t : net) total += t[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1)
        << "key " << k << " net " << total
        << ": successful ops did not alternate";
    ASSERT_EQ(a.get(ds, ctx, static_cast<std::int64_t>(k)), total == 1)
        << "key " << k;
    present += static_cast<std::size_t>(total);
  }
  EXPECT_EQ(ds.size_slow(), present);
  EXPECT_TRUE(ds.check_invariants());
}

/// Deterministic concurrent run of one variant on the simulator: each op
/// draws a key, then a 0-99 coin against `lookup_pct` (lookup) and the
/// even insert/remove split of the rest.
template <class A>
void concurrent_consistency(typename A::DS& ds, A a, unsigned threads,
                            int range, int ops, std::uint64_t seed,
                            unsigned lookup_pct = 20) {
  std::vector<std::vector<int>> net(threads, std::vector<int>(range, 0));
  sim::Config cfg;
  cfg.seed = seed;
  auto res = sim::run(threads, cfg, [&](unsigned tid) {
    auto ctx = ds.make_ctx();
    for (int i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % range);
      unsigned action = static_cast<unsigned>(sim::rnd() % 100);
      if (action < lookup_pct) {
        (void)a.get(ds, ctx, k);
      } else if (action < lookup_pct + (100 - lookup_pct) / 2) {
        if (a.put(ds, ctx, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.del(ds, ctx, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u) << "use-after-free detected";
  expect_net_membership(ds, a, net, range);
}

/// Variants interoperating on shared keys: thread `tid` runs adapter
/// `adapter_of(tid)`, and each op draws a key, then an even insert/remove
/// coin. Membership is read back through `check`.
template <class A, class Pick>
void mixed_consistency(typename A::DS& ds, A check, Pick&& adapter_of,
                       unsigned threads, int range, int ops,
                       const sim::Config& cfg) {
  std::vector<std::vector<int>> net(threads, std::vector<int>(range, 0));
  auto res = sim::run(threads, cfg, [&](unsigned tid) {
    auto ctx = ds.make_ctx();
    const A a = adapter_of(tid);
    for (int i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % range);
      if (sim::rnd() % 2 == 0) {
        if (a.put(ds, ctx, k)) ++net[tid][static_cast<std::size_t>(k)];
      } else {
        if (a.del(ds, ctx, k)) --net[tid][static_cast<std::size_t>(k)];
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u) << "use-after-free detected";
  expect_net_membership(ds, check, net, range);
}

/// One recorded history of set ops, run under `cfg` (its schedule and
/// faults too) and checked key by key by the Wing–Gong checker. Each of
/// `threads` vthreads runs `ops` ops: a key below `range`, then a 0-99 coin
/// (below 30 a lookup, below 65 an insert, else a remove), applied as
/// `op(tid, kind, key)` through whatever per-thread handle `op` holds.
template <class Op>
void check_set_history(unsigned threads, int range, int ops,
                       const sim::Config& cfg, Op&& op) {
  HistoryRecorder rec(threads);
  auto res = sim::run(threads, cfg, [&](unsigned tid) {
    for (int i = 0; i < ops; ++i) {
      auto k = static_cast<std::int64_t>(sim::rnd() % range);
      auto c = static_cast<unsigned>(sim::rnd() % 100);
      SetOpKind kind = c < 30   ? SetOpKind::kContains
                       : c < 65 ? SetOpKind::kInsert
                                : SetOpKind::kRemove;
      rec.record(tid, kind, k, [&] { return op(tid, kind, k); });
    }
  });
  ASSERT_EQ(res.uaf_count, 0u) << note_failure(cfg.explore, "use after free");
  auto r = check_set_linearizability(rec.merged());
  ASSERT_TRUE(r.linearizable) << note_failure(
      cfg.explore,
      "history not linearizable at key " + std::to_string(r.failing_key));
  // Keep the per-key sub-histories within the checker's 64-op window.
  ASSERT_LE(r.largest_subhistory, 64u);
}

/// check_set_history over one set variant: a ctx per vthread, every op
/// through `a`.
template <class A>
void check_set_history(typename A::DS& ds, A a, unsigned threads, int range,
                       int ops, const sim::Config& cfg) {
  std::vector<typename A::Ctx> ctxs;
  for (unsigned t = 0; t < threads; ++t) ctxs.push_back(ds.make_ctx());
  check_set_history(threads, range, ops, cfg,
                    [&](unsigned tid, SetOpKind kind, std::int64_t k) {
                      auto& ctx = ctxs[tid];
                      switch (kind) {
                        case SetOpKind::kContains: return a.get(ds, ctx, k);
                        case SetOpKind::kInsert: return a.put(ds, ctx, k);
                        default: return a.del(ds, ctx, k);
                      }
                    });
}

}  // namespace pto::testutil
