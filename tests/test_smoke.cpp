// End-to-end smoke tests for the core stack: simulator, platforms, prefix
// transactions, and epoch reclamation. Deeper per-module suites live in the
// other test files.
#include <gtest/gtest.h>

#include "core/prefix.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "reclaim/epoch.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::Atom;
using pto::NativePlatform;
using pto::SimPlatform;

TEST(Smoke, SimRunsSingleThread) {
  int executed = 0;
  auto res = pto::sim::run(1, {}, [&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    ++executed;
    pto::sim::op_done(5);
  });
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(res.totals().ops_completed, 5u);
}

TEST(Smoke, SimInterleavesThreads) {
  Atom<SimPlatform, std::uint64_t> counter;
  counter.init(0);
  auto res = pto::sim::run(4, {}, [&](unsigned) {
    for (int i = 0; i < 100; ++i) counter.fetch_add(1);
  });
  int done_in_sim = 0;
  (void)done_in_sim;
  // Host-side read after the simulation finished.
  std::uint64_t final = 0;
  pto::sim::run(1, {}, [&](unsigned) { final = counter.load(); });
  EXPECT_EQ(final, 400u);
  EXPECT_GT(res.makespan(), 0u);
}

TEST(Smoke, SimPrefixTransactionCommits) {
  Atom<SimPlatform, int> a, b;
  a.init(0);
  b.init(0);
  pto::sim::run(2, {}, [&](unsigned) {
    for (int i = 0; i < 50; ++i) {
      pto::prefix<SimPlatform>(
          3,
          [&] {
            // Multi-word atomic update in a transaction.
            a.store(a.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
            b.store(b.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
          },
          [&] {
            a.fetch_add(1);
            b.fetch_add(1);
          });
    }
  });
  int av = 0, bv = 0;
  pto::sim::run(1, {}, [&](unsigned) {
    av = a.load();
    bv = b.load();
  });
  EXPECT_EQ(av, 100);
  EXPECT_EQ(bv, 100);
}

TEST(Smoke, SimExplicitAbortFallsBack) {
  Atom<SimPlatform, int> x;
  x.init(0);
  SiteDelta st("smoke.explicit");
  pto::sim::run(1, {}, [&](unsigned) {
    int r = pto::prefix<SimPlatform>(
        2, [&]() -> int { SimPlatform::tx_abort<pto::TX_CODE_HELPING>(); },
        [&]() -> int {
          x.store(7);
          return 42;
        },
        st.site());
    EXPECT_EQ(r, 42);
  });
  EXPECT_EQ(st.get().fallbacks, 1u);
  EXPECT_EQ(st.get().aborts[pto::TX_ABORT_EXPLICIT], 1u);
  // Explicit aborts skip remaining attempts by default.
  EXPECT_EQ(st.get().attempts, 1u);
}

TEST(Smoke, NativePrefixTransactionWorks) {
  Atom<NativePlatform, int> a, b;
  a.init(0);
  b.init(0);
  SiteDelta st("smoke.native");
  for (int i = 0; i < 100; ++i) {
    pto::prefix<NativePlatform>(
        4,
        [&] {
          a.store(a.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
          b.store(b.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
        },
        [&] {
          a.fetch_add(1);
          b.fetch_add(1);
        },
        st.site());
  }
  EXPECT_EQ(a.load(), 100);
  EXPECT_EQ(b.load(), 100);
  EXPECT_EQ(st.get().commits + st.get().fallbacks, 100u);
}

TEST(Smoke, EpochReclaimsOnSim) {
  struct Node {
    Atom<SimPlatform, int> v;
  };
  pto::sim::Config cfg;
  auto res = pto::sim::run(2, cfg, [&](unsigned) {
    static pto::EpochDomain<SimPlatform>* dom = nullptr;
    if (pto::sim::thread_id() == 0 && dom == nullptr) {
      dom = new pto::EpochDomain<SimPlatform>();
    }
    while (dom == nullptr) pto::sim::cpu_pause();
    auto h = dom->register_thread();
    for (int i = 0; i < 200; ++i) {
      auto* n = SimPlatform::make<Node>();
      {
        pto::EpochDomain<SimPlatform>::Guard g(h);
        n->v.store(i, std::memory_order_relaxed);
      }
      h.retire(n);
    }
    h.reclaim_some();
  });
  EXPECT_EQ(res.uaf_count, 0u);
  EXPECT_GT(res.totals().frees, 0u);
}

TEST(Smoke, DeterministicRuns) {
  auto trace = [&]() -> std::uint64_t {
    Atom<SimPlatform, std::uint64_t> w;
    w.init(0);
    auto res = pto::sim::run(3, {}, [&](unsigned tid) {
      for (int i = 0; i < 50; ++i) {
        w.fetch_add(pto::sim::rnd() % 7 + tid);
      }
    });
    return res.makespan() ^ res.totals().loads;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
