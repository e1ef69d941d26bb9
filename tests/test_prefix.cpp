// The prefix() combinator: retry budgets, per-cause policies, statistics
// accounting, return-type handling, and hierarchical composition (§2.5).
#include <gtest/gtest.h>

#include <string>

#include "core/prefix.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::PrefixPolicy;
using pto::SimPlatform;
namespace sim = pto::sim;

TEST(Prefix, AttemptBudgetHonored) {
  sim::Config cfg;
  cfg.explore.fault_rate = 1.0;  // first instrumented access aborts
  for (int budget : {1, 2, 5, 9}) {
    SiteDelta st("test.prefix.st");
    pto::Atom<SimPlatform, int> x;
    x.init(0);
    sim::run(1, cfg, [&](unsigned) {
      pto::prefix<SimPlatform>(
          PrefixPolicy(budget),
          [&] { x.store(1, std::memory_order_relaxed); }, [] {}, st.site());
    });
    EXPECT_EQ(st.get().attempts, static_cast<std::uint64_t>(budget));
    EXPECT_EQ(st.get().fallbacks, 1u);
    EXPECT_EQ(st.get().aborts[pto::TX_ABORT_SPURIOUS],
              static_cast<std::uint64_t>(budget));
  }
}

TEST(Prefix, ExplicitAbortSkipsRemainingAttemptsByDefault) {
  SiteDelta st("test.prefix.st");
  sim::run(1, {}, [&](unsigned) {
    pto::prefix<SimPlatform>(
        PrefixPolicy(10),
        [] { SimPlatform::tx_abort<pto::TX_CODE_HELPING>(); }, [] {}, st.site());
  });
  EXPECT_EQ(st.get().attempts, 1u);
  EXPECT_EQ(st.get().fallbacks, 1u);
}

TEST(Prefix, RetryOnExplicitRetriesFullBudget) {
  PrefixPolicy pol(5);
  pol.retry_on_explicit = true;
  SiteDelta st("test.prefix.st");
  sim::run(1, {}, [&](unsigned) {
    pto::prefix<SimPlatform>(
        pol, [] { SimPlatform::tx_abort<pto::TX_CODE_HELPING>(); }, [] {},
        st.site());
  });
  EXPECT_EQ(st.get().attempts, 5u);
}

TEST(Prefix, ExplicitAbortCodeObservable) {
  sim::run(1, {}, [&](unsigned) {
    pto::prefix<SimPlatform>(
        1, [] { SimPlatform::tx_abort<pto::TX_CODE_VALIDATION>(); }, [] {});
    EXPECT_EQ(SimPlatform::last_user_code(), pto::TX_CODE_VALIDATION);
  });
}

TEST(Prefix, NonVoidResultPropagates) {
  sim::run(1, {}, [&](unsigned) {
    std::string r = pto::prefix<SimPlatform>(
        2, [] { return std::string("fast"); },
        [] { return std::string("slow"); });
    EXPECT_EQ(r, "fast");
    sim::Config unused;
    (void)unused;
  });
}

TEST(Prefix, FallbackResultPropagates) {
  sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  pto::Atom<SimPlatform, int> x;
  x.init(0);
  sim::run(1, cfg, [&](unsigned) {
    int r = pto::prefix<SimPlatform>(
        3,
        [&] {
          x.store(1, std::memory_order_relaxed);
          return 1;
        },
        [] { return 2; });
    EXPECT_EQ(r, 2);
  });
}

TEST(Prefix, StatsCountCommitsExactly) {
  SiteDelta st("test.prefix.st");
  sim::run(1, {}, [&](unsigned) {
    for (int i = 0; i < 250; ++i) {
      pto::prefix<SimPlatform>(3, [] {}, [] {}, st.site());
    }
  });
  EXPECT_EQ(st.get().commits, 250u);
  EXPECT_EQ(st.get().attempts, 250u);
  EXPECT_EQ(st.get().fallbacks, 0u);
  EXPECT_EQ(st.get().total_aborts(), 0u);
}

TEST(Prefix, HierarchicalCompositionFallsThroughInOrder) {
  // Outer prefix (doomed) -> inner prefix (doomed) -> final fallback; the
  // attempt ordering is the paper's T_B(T_A(G)) recursive optimization.
  sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta outer_st("test.prefix.outer_st");
  SiteDelta inner_st("test.prefix.inner_st");
  pto::Atom<SimPlatform, int> x;
  x.init(0);
  int order = 0, outer_done = 0, inner_done = 0, final_done = 0;
  sim::run(1, cfg, [&](unsigned) {
    pto::prefix<SimPlatform>(
        2,
        [&] {
          x.store(1, std::memory_order_relaxed);  // dies spuriously
          outer_done = ++order;
        },
        [&] {
          pto::prefix<SimPlatform>(
              16,
              [&] {
                x.store(2, std::memory_order_relaxed);
                inner_done = ++order;
              },
              [&] { final_done = ++order; }, inner_st.site());
        },
        outer_st.site());
  });
  EXPECT_EQ(outer_done, 0);  // never committed
  EXPECT_EQ(inner_done, 0);
  EXPECT_EQ(final_done, 1);
  EXPECT_EQ(outer_st.get().attempts, 2u);
  EXPECT_EQ(inner_st.get().attempts, 16u);
}

TEST(Prefix, NestedPrefixInsideActiveTxIsFlat) {
  // An inner prefix inside a running transaction must not commit separately;
  // aborting the inner body aborts the whole (flat) transaction.
  SiteDelta outer_st("test.prefix.outer_st");
  int final_path = 0;
  sim::run(1, {}, [&](unsigned) {
    pto::prefix<SimPlatform>(
        1,
        [&] {
          pto::prefix<SimPlatform>(
              1, [&] { SimPlatform::tx_abort<pto::TX_CODE_POLICY>(); },
              [&] { ADD_FAILURE() << "inner slow ran inside outer tx"; });
        },
        [&] { final_path = 1; }, outer_st.site());
  });
  EXPECT_EQ(final_path, 1);
  EXPECT_EQ(outer_st.get().aborts[pto::TX_ABORT_EXPLICIT], 1u);
}

// A stub platform whose tx_begin reports a canned status, for driving the
// combinator's abort-code handling without a simulator or real HTM.
struct FakePlatform {
  static inline unsigned status = pto::TX_STARTED;
  static bool in_tx() { return false; }
  static std::jmp_buf& tx_checkpoint() {
    static thread_local std::jmp_buf buf;
    return buf;
  }
  static unsigned tx_begin() { return status; }
  static void tx_end() {}
};

TEST(Prefix, OutOfRangeStatusLandsInOtherBucket) {
  // A backend may surface statuses outside the TxAbort enum (unmapped RTM
  // bits, stray longjmp payloads); they must bucket to TX_ABORT_OTHER, never
  // index past the aborts array.
  for (unsigned s : {pto::kTxCodeCount, 42u, 0xdeadu}) {
    FakePlatform::status = s;
    SiteDelta st("test.prefix.st");
    int r = pto::prefix<FakePlatform>(3, [] { return 1; }, [] { return 2; },
                                      st.site());
    EXPECT_EQ(r, 2);
    EXPECT_EQ(st.get().attempts, 3u);  // retried like a transient abort
    EXPECT_EQ(st.get().aborts[pto::TX_ABORT_OTHER], 3u) << "status " << s;
    EXPECT_EQ(st.get().total_aborts(), 3u);
    EXPECT_EQ(st.get().fallbacks, 1u);
  }
}

TEST(Prefix, DurationAbortGatedLikeCapacity) {
  // DURATION recurs just like CAPACITY, so it must consume the budget the
  // same way: one attempt by default, the full budget under retry_on_capacity.
  FakePlatform::status = pto::TX_ABORT_DURATION;
  SiteDelta st("test.prefix.st");
  pto::prefix<FakePlatform>(8, [] {}, [] {}, st.site());
  EXPECT_EQ(st.get().attempts, 1u);
  EXPECT_EQ(st.get().aborts[pto::TX_ABORT_DURATION], 1u);
  EXPECT_EQ(st.get().fallbacks, 1u);

  PrefixPolicy pol(8);
  pol.retry_on_capacity = true;
  SiteDelta st2("test.prefix.st2");
  pto::prefix<FakePlatform>(pol, [] {}, [] {}, st2.site());
  EXPECT_EQ(st2.get().attempts, 8u);
  EXPECT_EQ(st2.get().aborts[pto::TX_ABORT_DURATION], 8u);
  EXPECT_EQ(st2.get().fallbacks, 1u);
}

TEST(Prefix, WorksOutsideSimulationViaFallback) {
  // Host-side (no simulation running): SimPlatform transactions are
  // unavailable, prefix must route to the fallback.
  int r = pto::prefix<SimPlatform>(3, [] { return 1; }, [] { return 2; });
  EXPECT_EQ(r, 2);
}

}  // namespace
