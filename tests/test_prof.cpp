// pto::telemetry::prof — observation-only contract (simulated cycles are
// byte-identical with profiling on/off), conflict-matrix consistency against
// the telemetry registry, and the latency-class cycle ledger explaining the
// PTO-vs-baseline virtual-cycle delta.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/defs.h"
#include "core/prefix.h"
#include "ds/bst/ellen_bst.h"
#include "ds/skiplist/skiplist.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "sim_util.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"

namespace {

using pto::Atom;
using pto::CacheAligned;
using pto::EllenBST;
using pto::SimPlatform;
using pto::SkipList;
namespace sim = pto::sim;
namespace telemetry = pto::telemetry;
namespace prof = pto::telemetry::prof;

/// RAII: enable profiling for one test, restore quiet state afterwards.
struct ProfOn {
  ProfOn() {
    prof::set_enabled(true);
    prof::reset();
  }
  ~ProfOn() {
    prof::reset();
    prof::set_enabled(false);
  }
};

// ---------------------------------------------------------------------------
// Observation-only: the golden rich workload from test_sim.cpp, byte-for-byte
// the same pinned constants with PTO_PROF recording enabled. If these move,
// a profiling hook charged virtual cycles.
// ---------------------------------------------------------------------------

TEST(Prof, DoesNotPerturbGoldenWorkload) {
  ProfOn guard;
  sim::reset_memory();
  sim::Config cfg;
  cfg.seed = 2026;
  cfg.htm.max_duration = 5'000;
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(64);
  for (auto& c : cells) c.value.init(0);
  pto::testutil::SimBarrier bar(4);
  auto res = sim::run(4, cfg, [&](unsigned tid) {
    for (int i = 0; i < 300; ++i) {
      auto a = static_cast<unsigned>(sim::rnd() % cells.size());
      auto b = static_cast<unsigned>(sim::rnd() % cells.size());
      if (i % 7 == 0) {
        auto* n = SimPlatform::make<Atom<SimPlatform, std::uint64_t>>();
        n->init(i);
        n->store(n->load(std::memory_order_relaxed) + tid,
                 std::memory_order_relaxed);
        SimPlatform::destroy(n);
      }
      pto::prefix<SimPlatform>(
          2,
          [&] {
            auto v = cells[a].value.load(std::memory_order_relaxed);
            cells[b].value.store(v + tid + 1, std::memory_order_relaxed);
          },
          [&] {
            cells[b].value.fetch_add(tid + 1, std::memory_order_seq_cst);
          });
      if (i == 150) bar.wait();
      sim::op_done();
    }
  });
  auto t = res.totals();
  EXPECT_EQ(res.makespan(), 48945u);
  EXPECT_EQ(t.loads, 1469u);
  EXPECT_EQ(t.stores, 1420u);
  EXPECT_EQ(t.cas_ops, 0u);
  EXPECT_EQ(t.rmws, 16u);
  EXPECT_EQ(t.tx_commits, 1192u);
  EXPECT_EQ(t.total_aborts(), 69u);
  EXPECT_EQ(t.allocs, 172u);
  EXPECT_EQ(t.frees, 172u);
  EXPECT_EQ(t.ops_completed, 1200u);
  EXPECT_EQ(res.uaf_count, 0u);
}

// ---------------------------------------------------------------------------
// Observation-only, site-rich path: the same telemetry-sited workload run
// with profiling off and then on must produce identical simulated results.
// ---------------------------------------------------------------------------

TEST(Prof, OnOffSimulationIdentical) {
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(32);
  auto run_once = [&] {
    sim::reset_memory();
    for (auto& c : cells) c.value.init(0);
    sim::Config cfg;
    cfg.seed = 99;
    return sim::run(4, cfg, [&](unsigned tid) {
      for (int i = 0; i < 400; ++i) {
        auto a = static_cast<unsigned>(sim::rnd() % cells.size());
        auto b = static_cast<unsigned>(sim::rnd() % cells.size());
        pto::prefix<SimPlatform>(
            2,
            [&] {
              auto v = cells[a].value.load(std::memory_order_relaxed);
              cells[b].value.store(v + 1, std::memory_order_seq_cst);
            },
            [&] { cells[b].value.fetch_add(tid + 1, std::memory_order_seq_cst); },
            PTO_TELEMETRY_SITE("proftest.op"));
        sim::op_done();
      }
    });
  };
  prof::set_enabled(false);
  auto off = run_once();
  {
    ProfOn guard;
    auto on = run_once();
    EXPECT_EQ(off.makespan(), on.makespan());
    EXPECT_EQ(off.clocks, on.clocks);
    auto to = off.totals();
    auto tn = on.totals();
    EXPECT_EQ(to.loads, tn.loads);
    EXPECT_EQ(to.stores, tn.stores);
    EXPECT_EQ(to.tx_commits, tn.tx_commits);
    EXPECT_EQ(to.total_aborts(), tn.total_aborts());
    EXPECT_EQ(to.fences_elided, tn.fences_elided);
    // And the profiler did actually observe the sited run.
    auto scopes = prof::snapshot();
    ASSERT_FALSE(scopes.empty());
    bool saw_site = false;
    for (const auto& sc : scopes) {
      for (const auto& l : sc.sites) {
        if (l.site == "proftest.op") {
          saw_site = true;
          EXPECT_GT(l.fast.count + l.fallback.count, 0u);
        }
      }
    }
    EXPECT_TRUE(saw_site);
  }
}

// ---------------------------------------------------------------------------
// Conflict matrix vs registry: on a contended fig3-style set workload at
// 8 vthreads, the per-victim-site doomed-abort totals in the matrix must
// equal the registry's conflict-abort counters site by site — the two views
// are causally the same events (one doom() = one recorded CONFLICT abort).
// ---------------------------------------------------------------------------

TEST(Prof, ConflictMatrixMatchesRegistryCounters) {
  ProfOn guard;
  telemetry::set_enabled(true);
  telemetry::Registry::instance().reset_all();
  sim::reset_memory();

  using Mode = EllenBST<SimPlatform>::Mode;
  constexpr int kRange = 64;
  auto* tree = new EllenBST<SimPlatform>();
  auto* skip = new SkipList<SimPlatform>();
  {
    auto ctx = tree->make_ctx();
    for (int i = 0; i < kRange / 2; ++i) {
      tree->insert(ctx, (i * 7) % kRange, Mode::kLockfree);
    }
  }
  {
    auto ctx = skip->make_ctx();
    for (int i = 0; i < kRange / 2; ++i) {
      skip->insert_lf(ctx, (i * 5) % kRange);
    }
  }

  sim::Config cfg;
  cfg.seed = 2027;
  sim::run(8, cfg, [&](unsigned tid) {
    if (tid % 2 == 0) {
      auto ctx = tree->make_ctx();
      for (int i = 0; i < 500; ++i) {
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
      for (int i = 0; i < 500; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % kRange);
        if (sim::rnd() % 2 == 0) {
          skip->insert_pto(ctx, k);
        } else {
          skip->remove_pto(ctx, k);
        }
        sim::op_done();
      }
    }
  });

  auto scopes = prof::snapshot();
  const prof::ScopeSnapshot* sc = nullptr;
  for (const auto& s : scopes) {
    if (s.label.empty()) sc = &s;
  }
  ASSERT_NE(sc, nullptr);

  std::map<std::string, std::uint64_t> victim_rows;
  std::uint64_t matrix_total = 0;
  for (const auto& cell : sc->matrix) {
    victim_rows[cell.victim] += cell.count;
    matrix_total += cell.count;
    EXPECT_GT(cell.count, 0u);
  }
  // The workload must actually conflict, or this test checks nothing.
  ASSERT_GT(matrix_total, 0u);
  // Every doomed transaction belonged to a sited prefix: site identity
  // flowed through the prof tap with no per-DS plumbing.
  EXPECT_EQ(victim_rows.count("(none)"), 0u);

  std::uint64_t registry_total = 0;
  for (auto* site : telemetry::Registry::instance().sites()) {
    const std::uint64_t conflicts =
        site->snapshot().aborts[pto::TX_ABORT_CONFLICT];
    registry_total += conflicts;
    auto it = victim_rows.find(site->name());
    const std::uint64_t row = it == victim_rows.end() ? 0 : it->second;
    EXPECT_EQ(row, conflicts) << "site " << site->name();
  }
  EXPECT_EQ(matrix_total, registry_total);

  // Hot-line table covers the same events.
  std::uint64_t line_total = 0;
  for (const auto& h : sc->hot_lines) line_total += h.aborts;
  EXPECT_EQ(line_total, matrix_total);

  delete tree;
  delete skip;
  sim::reset_memory();
  telemetry::Registry::instance().reset_all();
  telemetry::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Cycle ledger: on a fixed single-thread workload, the four latency classes
// plus retry waste must account for >= 95% of the virtual-cycle delta
// between a PTO series and its non-PTO baseline.
// ---------------------------------------------------------------------------

TEST(Prof, LedgerAccountsSpeedupDelta) {
  ProfOn guard;
  sim::reset_memory();
  constexpr int kOps = 2048;

  struct Cells {
    Atom<SimPlatform, std::uint64_t> a, b, c;
  };
  Cells cells;
  cells.a.init(1);
  cells.b.init(0);
  cells.c.init(0);

  // The fallback is a deliberately "lock-free-shaped" op: synchronization
  // (fetch_add), a seq_cst publish fence, a double-check re-read, and a
  // descriptor allocation — one instance of each latency class PTO deletes.
  auto slow_op = [&] {
    cells.b.fetch_add(1, std::memory_order_seq_cst);
    cells.c.store(2, std::memory_order_seq_cst);  // store + fence
    (void)cells.a.load(std::memory_order_relaxed);
    (void)cells.a.load(std::memory_order_relaxed);
    (void)cells.a.load(std::memory_order_relaxed);  // validation re-read
    void* p = SimPlatform::alloc_bytes(64);
    SimPlatform::free_bytes(p, 64);
  };

  sim::Config cfg;
  cfg.seed = 7;

  auto pto_res = sim::run(1, cfg, [&](unsigned) {
    auto* site = PTO_TELEMETRY_SITE("profled.op");
    for (int i = 0; i < kOps; ++i) {
      pto::prefix<SimPlatform>(
          1,
          [&] {
            // A periodic explicit abort exercises the retry-waste channel.
            if (i % 16 == 0) SimPlatform::tx_abort<1>();
            auto v = cells.a.load(std::memory_order_relaxed);
            auto cur = cells.b.load(std::memory_order_relaxed);
            cells.b.compare_exchange_strong(cur, cur + v,
                                            std::memory_order_relaxed);
            cells.c.store(2, std::memory_order_seq_cst);  // fence elided
          },
          slow_op, PTO_TELEMETRY_SITE("profled.op"));
      (void)site;
      sim::op_done();
    }
  });

  auto base_res = sim::run(1, cfg, [&](unsigned) {
    for (int i = 0; i < kOps; ++i) {
      slow_op();
      sim::op_done();
    }
  });

  const double pto_cycles = static_cast<double>(pto_res.clocks[0]);
  const double base_cycles = static_cast<double>(base_res.clocks[0]);
  const double delta = base_cycles - pto_cycles;
  ASSERT_GT(delta, 0.0) << "PTO must beat the baseline on this workload";

  auto scopes = prof::snapshot();
  const prof::SiteLedger* ledger = nullptr;
  for (const auto& sc : scopes) {
    for (const auto& l : sc.sites) {
      if (l.site == "profled.op") ledger = &l;
    }
  }
  ASSERT_NE(ledger, nullptr);

  EXPECT_EQ(ledger->fast.count, static_cast<std::uint64_t>(kOps - kOps / 16));
  EXPECT_EQ(ledger->fallback.count, static_cast<std::uint64_t>(kOps / 16));
  EXPECT_EQ(ledger->aborts[pto::TX_ABORT_EXPLICIT],
            static_cast<std::uint64_t>(kOps / 16));
  // One elided fence per committed fast op; CAS collapse observed throughout.
  EXPECT_EQ(ledger->fence_elided_count, ledger->fast.count);
  EXPECT_GT(ledger->cas_collapsed_cycles, 0u);
  EXPECT_GT(ledger->retry_waste_cycles, 0u);

  prof::SavingsBreakdown sv = prof::derive_savings(*ledger);
  EXPECT_GT(sv.fence_removed, 0.0);
  EXPECT_GT(sv.second_read_collapsed, 0.0);
  EXPECT_GT(sv.store_sync_removed, 0.0);
  EXPECT_GT(sv.alloc_avoided, 0.0);

  // The ledger must explain >= 95% of the measured speedup.
  const double err = sv.explained() > delta ? sv.explained() - delta
                                            : delta - sv.explained();
  EXPECT_LE(err, 0.05 * delta)
      << "explained=" << sv.explained() << " delta=" << delta;
  sim::reset_memory();
}

}  // namespace
