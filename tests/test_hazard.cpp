// Hazard-pointer reclamation: protection semantics, scan-based reclaim,
// transactional elision (§2.3/§5), and a deterministic use-after-free hunt.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/prefix.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "reclaim/hazard.h"
#include "sim/sim.h"
#include "sim_util.h"
#include "site_delta.h"

namespace {

using pto::Atom;
using pto::HazardDomain;
using pto::SimPlatform;

struct Node {
  Atom<SimPlatform, int> v;
};

TEST(Hazard, ProtectedNodeSurvivesScans) {
  HazardDomain<SimPlatform> dom;
  auto* shared = SimPlatform::make<Node>();
  shared->v.init(1);
  Atom<SimPlatform, Node*> src;
  src.init(shared);
  pto::testutil::SimBarrier bar(2);

  auto res = pto::sim::run(2, {}, [&](unsigned tid) {
    auto h = dom.register_thread();
    if (tid == 0) {
      Node* n = h.protect(0, src);
      bar.wait();
      for (int i = 0; i < 3000; ++i) {
        ASSERT_EQ(n->v.load(std::memory_order_relaxed), 1);
        pto::sim::cpu_pause();
      }
      h.clear(0);
    } else {
      bar.wait();
      src.store(nullptr);
      h.retire(shared);
      // Churn way past the scan threshold: `shared` must survive scans
      // because thread 0's hazard slot points at it.
      for (int i = 0; i < 400; ++i) {
        auto* n = SimPlatform::make<Node>();
        n->v.init(i);
        h.retire(n);
      }
      h.scan_and_reclaim();
      // `shared` survives every scan that ran while thread 0's hazard was
      // published — proven by thread 0's in-loop asserts and uaf_count; by
      // this point thread 0 may already have released it.
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
}

TEST(Hazard, UnprotectedNodesReclaimed) {
  HazardDomain<SimPlatform> dom;
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    for (int i = 0; i < 300; ++i) {
      auto* n = SimPlatform::make<Node>();
      n->v.init(i);
      h.retire(n);
    }
    h.scan_and_reclaim();
    EXPECT_EQ(h.limbo_size(), 0u);
  });
  EXPECT_EQ(res.totals().frees, 300u);
}

TEST(Hazard, ProtectValidatesAgainstConcurrentSwap) {
  // protect() must never return a pointer that was unlinked before the
  // hazard was visible: model the window by swapping src mid-run.
  HazardDomain<SimPlatform> dom;
  auto* a = SimPlatform::make<Node>();
  a->v.init(1);
  auto* b = SimPlatform::make<Node>();
  b->v.init(2);
  Atom<SimPlatform, Node*> src;
  src.init(a);
  auto res = pto::sim::run(2, {}, [&](unsigned tid) {
    auto h = dom.register_thread();
    if (tid == 0) {
      for (int i = 0; i < 200; ++i) {
        Node* n = h.protect(0, src);
        int v = n->v.load(std::memory_order_relaxed);
        ASSERT_TRUE(v == 1 || v == 2);
        h.clear(0);
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        Node* cur = src.load();
        src.store(cur == a ? b : a);
        pto::sim::cpu_pause();
      }
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  SimPlatform::destroy(a);
  SimPlatform::destroy(b);
}

TEST(Hazard, ElidedInsideTransactions) {
  // Inside a strongly atomic transaction protect() is a plain load: no
  // hazard stores, no fences — the paper's §2.3 redundant-store elimination.
  HazardDomain<SimPlatform> dom;
  auto* n = SimPlatform::make<Node>();
  n->v.init(7);
  Atom<SimPlatform, Node*> src;
  src.init(n);
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    for (int i = 0; i < 100; ++i) {
      int v = pto::prefix<SimPlatform>(
          1,
          [&]() -> int {
            Node* p = h.protect(0, src);
            int x = p->v.load(std::memory_order_relaxed);
            h.clear(0);
            return x;
          },
          [&]() -> int {
            Node* p = h.protect(0, src);
            int x = p->v.load();
            h.clear(0);
            return x;
          });
      ASSERT_EQ(v, 7);
    }
  });
  // All 100 publication fences elided; the residue is the handle
  // destructor clearing its 4 slots with seq_cst stores.
  EXPECT_LE(res.totals().fences, 4u);
  SimPlatform::destroy(n);
}

TEST(Hazard, TransactionStillAbortedByFree) {
  // Even without a published hazard, a transaction is safe: freeing a line
  // it read dooms it (strong atomicity) — the §5 argument for elision.
  HazardDomain<SimPlatform> dom;
  auto* n = SimPlatform::make<Node>();
  n->v.init(5);
  SiteDelta st("test.hazard.st");
  auto res = pto::sim::run(2, {}, [&](unsigned tid) {
    auto h = dom.register_thread();
    if (tid == 0) {
      Atom<SimPlatform, Node*> local;
      local.init(n);
      pto::prefix<SimPlatform>(
          1,
          [&]() -> int {
            Node* p = h.protect(0, local);  // elided: no hazard published
            int v = p->v.load(std::memory_order_relaxed);
            // Hold the transaction open long enough for the other thread's
            // retire + full-table scan (the scan walks all hazard rows).
            for (int i = 0; i < 2000; ++i) SimPlatform::pause();
            return v;
          },
          [&]() -> int { return -1; }, st.site());
    } else {
      for (int i = 0; i < 50; ++i) SimPlatform::pause();
      h.retire(n);
      h.scan_and_reclaim();  // frees n: no hazards point at it
    }
  });
  EXPECT_EQ(st.get().aborts[pto::TX_ABORT_CONFLICT], 1u);
  EXPECT_EQ(res.uaf_count, 0u);
}

TEST(Hazard, RowReuseAfterHandleDeath) {
  HazardDomain<SimPlatform> dom;
  unsigned row;
  {
    auto h = dom.register_thread();
    row = h.row();
  }
  auto h2 = dom.register_thread();
  EXPECT_EQ(h2.row(), row);
}

TEST(HazardDeathTest, ExhaustingRowsAborts) {
  using Domain = HazardDomain<pto::NativePlatform>;
  EXPECT_DEATH(
      {
        Domain dom;
        std::vector<Domain::Handle> hs;
        hs.reserve(pto::kMaxThreads + 1);
        for (unsigned i = 0; i <= pto::kMaxThreads; ++i) {
          hs.push_back(dom.register_thread());
        }
      },
      "more than 1024 concurrent handles");
}

TEST(HazardNative, ConcurrentHandleExitsParkEveryOrphan) {
  // Handles that die at once on several threads each park the nodes a
  // hazard still protects with the domain (under its lock), and the domain
  // frees every parked node when it dies.
  struct Counted {
    explicit Counted(std::atomic<int>* f) : freed(f) {}
    ~Counted() { freed->fetch_add(1); }
    std::atomic<int>* freed;
  };
  using Domain = HazardDomain<pto::NativePlatform>;
  constexpr unsigned kThreads = 4;  // one hazard slot of `keeper` each
  std::atomic<int> freed{0};
  {
    Domain dom;
    auto keeper = dom.register_thread();
    std::vector<Counted*> nodes;
    for (unsigned t = 0; t < kThreads; ++t) {
      nodes.push_back(pto::NativePlatform::make<Counted>(&freed));
      keeper.set(t, nodes.back());
    }
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        auto h = dom.register_thread();
        h.retire(nodes[t]);
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
      });  // h dies here, parking nodes[t]
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_EQ(freed.load(), static_cast<int>(kThreads));
}

TEST(Hazard, NativePlatformBasics) {
  HazardDomain<pto::NativePlatform> dom;
  auto h = dom.register_thread();
  using NNode = pto::Atom<pto::NativePlatform, int>;
  Atom<pto::NativePlatform, NNode*> src;
  auto* n = pto::NativePlatform::make<NNode>();
  n->init(9);
  src.init(n);
  NNode* p = h.protect(0, src);
  EXPECT_EQ(p->load(), 9);
  h.clear(0);
  h.retire(n);
  h.scan_and_reclaim();
  EXPECT_EQ(h.limbo_size(), 0u);
}

}  // namespace
