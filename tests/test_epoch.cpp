// Epoch-based reclamation: grace periods, guard nesting, transactional
// elision, handle lifecycle, and custom disposers.
#include <gtest/gtest.h>

#include <vector>

#include "core/prefix.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "reclaim/epoch.h"
#include "sim/sim.h"
#include "sim_util.h"

namespace {

using pto::Atom;
using pto::EpochDomain;
using pto::SimPlatform;

struct Node {
  Atom<SimPlatform, int> v;
};

TEST(Epoch, NoReclaimWhileGuardFromRetireEpochActive) {
  // A node retired while a guard holds a reference must survive until that
  // guard exits, even across many retire batches by the other thread.
  EpochDomain<SimPlatform> dom;
  auto* shared = SimPlatform::make<Node>();
  shared->v.init(1);
  Atom<SimPlatform, std::uintptr_t> published;
  published.init(reinterpret_cast<std::uintptr_t>(shared));

  pto::testutil::SimBarrier bar(2);
  auto res = pto::sim::run(2, {}, [&](unsigned tid) {
    auto h = dom.register_thread();
    if (tid == 0) {
      typename EpochDomain<SimPlatform>::Guard g(h);
      auto* n = reinterpret_cast<Node*>(published.load());
      bar.wait();  // the pointer is acquired before the unlink happens
      // Linger: the reclaimer must not free `n` under us.
      for (int i = 0; i < 3000; ++i) {
        ASSERT_EQ(n->v.load(std::memory_order_relaxed), 1);
        pto::sim::cpu_pause();
      }
    } else {
      bar.wait();
      // Unlink and retire the shared node, then churn hundreds of others.
      published.store(0);
      h.retire(reinterpret_cast<Node*>(
          reinterpret_cast<void*>(shared)));
      for (int i = 0; i < 500; ++i) {
        auto* n = SimPlatform::make<Node>();
        n->v.init(i);
        h.retire(n);
      }
      h.reclaim_some();
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
}

TEST(Epoch, ReclaimsAfterQuiescence) {
  EpochDomain<SimPlatform> dom;
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    for (int i = 0; i < 300; ++i) {
      auto* n = SimPlatform::make<Node>();
      n->v.init(i);
      {
        typename EpochDomain<SimPlatform>::Guard g(h);
      }
      h.retire(n);
    }
    dom.advance_epochs();
    h.reclaim_some();
    EXPECT_LT(h.limbo_size(), 300u);
  });
  EXPECT_GT(res.totals().frees, 0u);
}

TEST(Epoch, GuardsNestViaDepthCount) {
  EpochDomain<SimPlatform> dom;
  pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    std::uint64_t e0 = dom.current_epoch();
    {
      typename EpochDomain<SimPlatform>::Guard outer(h);
      {
        typename EpochDomain<SimPlatform>::Guard inner(h);
      }
      // Inner guard exit must NOT clear the reservation: a guard at epoch
      // e permits one advance (to e+1) but pins the epoch there — reaching
      // e+2 would allow freeing what `outer` may still reference.
      dom.advance_epochs(3);
      EXPECT_LE(dom.current_epoch(), e0 + 1);
    }
    dom.advance_epochs(3);
    EXPECT_GE(dom.current_epoch(), e0 + 2);
  });
}

TEST(Epoch, GuardElidedInsideTransaction) {
  // Inside a (strongly atomic) transaction the guard reserves nothing:
  // no reservation stores, no fences.
  EpochDomain<SimPlatform> dom;
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    for (int i = 0; i < 100; ++i) {
      pto::prefix<SimPlatform>(
          1,
          [&] {
            typename EpochDomain<SimPlatform>::Guard g(h);
            // The guard is elided: the epoch can still advance.
          },
          [&] {});
    }
  });
  EXPECT_EQ(res.totals().fences, 0u);
}

TEST(Epoch, RetireCustomRunsDisposerWithContext) {
  EpochDomain<SimPlatform> dom;
  static int disposed_with_ctx;
  disposed_with_ctx = 0;
  int ctx_obj = 0;
  pto::sim::run(1, {}, [&](unsigned) {
    auto h = dom.register_thread();
    auto* n = SimPlatform::make<Node>();
    h.retire_custom(
        n,
        [](void* p, void* c) {
          if (c != nullptr) ++disposed_with_ctx;
          SimPlatform::destroy(static_cast<Node*>(p));
        },
        &ctx_obj);
    dom.advance_epochs();
    h.reclaim_some();
  });
  EXPECT_EQ(disposed_with_ctx, 1);
}

TEST(Epoch, OrphanedRetiresFreedAtDomainDestruction) {
  static int freed;
  freed = 0;
  {
    EpochDomain<SimPlatform> dom;
    pto::sim::run(1, {}, [&](unsigned) {
      auto h = dom.register_thread();
      auto* n = SimPlatform::make<Node>();
      h.retire_custom(
          n,
          [](void* p, void*) {
            ++freed;
            SimPlatform::destroy(static_cast<Node*>(p));
          },
          nullptr);
      // handle dies here with the node still in limbo
    });
    EXPECT_EQ(freed, 0);
  }
  EXPECT_EQ(freed, 1);
}

TEST(Epoch, SlotReuseAfterHandleDeath) {
  EpochDomain<SimPlatform> dom;
  unsigned first_slot;
  {
    auto h = dom.register_thread();
    first_slot = h.slot();
  }
  auto h2 = dom.register_thread();
  EXPECT_EQ(h2.slot(), first_slot);
}

// One handle past kMaxThreads must stop the process in every build type:
// sharing slot 0 would let the extra handle's destructor un-claim a slot
// another thread still uses.
TEST(EpochDeathTest, ExhaustingSlotsAborts) {
  using Domain = EpochDomain<pto::NativePlatform>;
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

TEST(Epoch, NativePlatformBasics) {
  EpochDomain<pto::NativePlatform> dom;
  auto h = dom.register_thread();
  for (int i = 0; i < 200; ++i) {
    auto* n = pto::NativePlatform::make<Atom<pto::NativePlatform, int>>();
    n->init(i);
    {
      typename EpochDomain<pto::NativePlatform>::Guard g(h);
    }
    h.retire(n);
  }
  dom.advance_epochs();
  h.reclaim_some();
  EXPECT_LT(h.limbo_size(), 200u);
}

TEST(Epoch, PinnedEpochRetireStaysLinear) {
  // While a guard pins the epoch no retire can free anything, so the limbo
  // list must not be rescanned on every retire: host work stays O(1)
  // amortized per retire (the rescan made 2^16 retires visit ~2^31 entries).
  using P = pto::NativePlatform;
  constexpr std::uint64_t kRetires = std::uint64_t{1} << 16;
  EpochDomain<P> dom;
  auto h = dom.register_thread();
  {
    typename EpochDomain<P>::Guard g(h);
    for (std::uint64_t i = 0; i < kRetires; ++i) {
      h.retire(P::make<Atom<P, int>>());
    }
    EXPECT_EQ(h.limbo_size(), kRetires);
  }
  EXPECT_LE(h.limbo_visits(), 2 * kRetires);
  dom.advance_epochs();
  h.reclaim_some();
  EXPECT_EQ(h.limbo_size(), 0u);
}

}  // namespace
