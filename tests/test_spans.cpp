// The one span stack (telemetry/span.h) that the profiler and the checker
// both read: with both taps armed, the profiler's ledger closes exactly the
// spans the registry counts, and an abort that unwinds a flat-nested prefix
// discards the inner span for both readers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/check.h"
#include "core/prefix.h"
#include "ds/bst/ellen_bst.h"
#include "ds/skiplist/skiplist.h"
#include "htm/txcode.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"

namespace {

using pto::Atom;
using pto::EllenBST;
using pto::SimPlatform;
using pto::SkipList;
namespace sim = pto::sim;
namespace check = pto::check;
namespace telemetry = pto::telemetry;
namespace prof = pto::telemetry::prof;

/// RAII: the counters, the profiler and the checker armed on a clean slate
/// for one test; everything quiet again afterwards.
struct BothReadersOn {
  BothReadersOn() {
    prof::reset();
    check::reset();
    telemetry::Registry::instance().reset_all();
    telemetry::set_enabled(true);
    prof::set_enabled(true);
    check::set_enabled(true);
    sim::reset_memory();
  }
  ~BothReadersOn() {
    check::set_enabled(false);
    prof::set_enabled(false);
    telemetry::set_enabled(false);
    prof::reset();
    check::reset();
    telemetry::Registry::instance().reset_all();
    sim::reset_memory();
  }
};

/// The default scope's ledger, keyed by site name.
std::map<std::string, prof::SiteLedger> ledger_by_site() {
  std::map<std::string, prof::SiteLedger> out;
  for (const auto& sc : prof::snapshot()) {
    if (!sc.label.empty()) continue;
    for (const auto& l : sc.sites) out[l.site] = l;
  }
  return out;
}

// Every span the stack opens and closes reaches the profiler's ledger: over
// a contended run of the BST's nested PTO1+PTO2 operations and the
// skiplist's PTO operations, each site's fast, fallback and per-cause abort
// counts equal what the registry counted. Host-side setup runs lock-free,
// so the registry sees only simulated prefix calls.
TEST(Spans, LedgerMatchesRegistryWithBothReaders) {
  BothReadersOn guard;
  using Mode = EllenBST<SimPlatform>::Mode;
  constexpr int kRange = 64;
  constexpr unsigned kThreads = 8;
  auto* tree = new EllenBST<SimPlatform>();
  auto* skip = new SkipList<SimPlatform>();
  {
    auto tctx = tree->make_ctx();
    auto sctx = skip->make_ctx();
    for (int i = 0; i < kRange / 2; ++i) {
      tree->insert(tctx, (i * 7) % kRange, Mode::kLockfree);
      skip->insert_lf(sctx, (i * 5) % kRange);
    }
  }

  std::vector<unsigned> depth_after(kThreads, ~0u);
  sim::Config cfg;
  cfg.seed = 4242;
  sim::run(kThreads, cfg, [&](unsigned tid) {
    if (tid % 2 == 0) {
      auto ctx = tree->make_ctx();
      for (int i = 0; i < 400; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % kRange);
        if (sim::rnd() % 2 == 0) {
          tree->insert(ctx, k, Mode::kPto12);
        } else {
          tree->remove(ctx, k, Mode::kPto12);
        }
        sim::op_done();
      }
    } else {
      auto ctx = skip->make_ctx();
      for (int i = 0; i < 400; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % kRange);
        if (sim::rnd() % 2 == 0) {
          skip->insert_pto(ctx, k);
        } else {
          skip->remove_pto(ctx, k);
        }
        sim::op_done();
      }
    }
    depth_after[tid] = telemetry::span_depth(tid);
  });

  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(depth_after[t], 0u) << "thread " << t;
  }
  const auto ledger = ledger_by_site();
  pto::PrefixStats total;
  for (auto* site : telemetry::Registry::instance().sites()) {
    const pto::PrefixStats reg = site->snapshot();
    total.accumulate(reg);
    auto it = ledger.find(site->name());
    const prof::SiteLedger l =
        it == ledger.end() ? prof::SiteLedger{} : it->second;
    EXPECT_EQ(l.fast.count, reg.commits) << site->name();
    EXPECT_EQ(l.fallback.count, reg.fallbacks) << site->name();
    for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
      EXPECT_EQ(l.aborts[c], reg.aborts[c])
          << site->name() << " " << pto::tx_code_name(c);
    }
  }
  // The run must exercise every kind of close, or this checks nothing.
  EXPECT_GT(total.commits, 0u);
  EXPECT_GT(total.fallbacks, 0u);
  EXPECT_GT(total.aborts[pto::TX_ABORT_CONFLICT], 0u);
  EXPECT_GT(ledger.count("bst.insert.pto2") + ledger.count("bst.remove.pto2"),
            0u);
  delete tree;
  delete skip;
}

// A prefix flat-nested in another's fast body opens its own span; when the
// enclosing transaction aborts, the longjmp skips the inner prefix's own
// close, and the outer abort's pop discards the inner span. The profiler
// then books nothing for the inner site, the checker attributes the outer
// fallback's racy store to the outer site, and no span outlives the op.
TEST(Spans, FlatNestedAbortDiscardsInnerSpan) {
  BothReadersOn guard;
  telemetry::Site* outer = PTO_TELEMETRY_SITE("spantest.outer");
  telemetry::Site* inner = PTO_TELEMETRY_SITE("spantest.inner");
  Atom<SimPlatform, std::uint64_t> cell;
  cell.init(0);
  unsigned depth_in_fallback = 0;
  unsigned depth_after = ~0u;
  sim::Config cfg;
  cfg.seed = 5;
  sim::run(2, cfg, [&](unsigned tid) {
    if (tid == 1) {
      cell.store(1, std::memory_order_relaxed);  // races the fallback's store
      sim::op_done();
      return;
    }
    pto::prefix<SimPlatform>(
        1,
        [&] {
          pto::prefix<SimPlatform>(
              1, [] { SimPlatform::tx_abort<pto::TX_ABORT_EXPLICIT>(); },
              [] {}, inner);
        },
        [&] {
          depth_in_fallback = telemetry::span_depth(tid);
          cell.store(2, std::memory_order_relaxed);
        },
        outer);
    depth_after = telemetry::span_depth(tid);
    sim::op_done();
  });

  EXPECT_EQ(depth_in_fallback, 1u);  // the outer fallback alone
  EXPECT_EQ(depth_after, 0u);
  EXPECT_EQ(inner->snapshot().attempts, 1u);  // its span did open

  const auto ledger = ledger_by_site();
  ASSERT_EQ(ledger.count("spantest.outer"), 1u);
  const prof::SiteLedger& o = ledger.at("spantest.outer");
  EXPECT_EQ(o.aborts[pto::TX_ABORT_EXPLICIT], 1u);
  EXPECT_EQ(o.aborted_attempts(), 1u);
  EXPECT_EQ(o.fast.count, 0u);
  EXPECT_EQ(o.fallback.count, 1u);
  EXPECT_EQ(ledger.count("spantest.inner"), 0u);

  bool outer_named = false;
  for (const auto& f : check::findings()) {
    EXPECT_NE(f.site_a, "spantest.inner");
    EXPECT_NE(f.site_b, "spantest.inner");
    if (f.site_a == "spantest.outer/fallback" ||
        f.site_b == "spantest.outer/fallback") {
      outer_named = true;
      EXPECT_EQ(f.kind, check::FindingKind::kRaceWriteWrite);
    }
  }
  EXPECT_TRUE(outer_named);
}

}  // namespace
