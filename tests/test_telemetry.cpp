// pto::telemetry — registry interning, thread-sharded accumulation from
// simulated and host threads, snapshot determinism, and the PTO_TRACE
// Chrome-trace golden file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/warn.h"
#include "core/prefix.h"
#include "ds/skiplist/skiplist.h"
#include "htm/htm.h"
#include "json_util.h"
#include "obs/obs.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "service/runtime.h"
#include "sim/sim.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace {

using pto::PrefixStats;
using pto::SimPlatform;
namespace sim = pto::sim;
namespace tel = pto::telemetry;

struct ContendedRun {
  sim::ThreadStats sim;  ///< the simulator's own transaction accounting
  std::uint64_t ops = 0;  ///< counter value: one increment per completed op
};

ContendedRun contended_run(tel::Site* site, std::uint64_t seed) {
  // Pristine simulated memory per run, like the benches between trials —
  // leftover cache-model state would make identical seeds diverge.
  sim::reset_memory();
  sim::Config cfg;
  cfg.seed = seed;
  pto::Atom<SimPlatform, std::uint64_t> counter;
  counter.init(0);
  const sim::RunResult res = sim::run(4, cfg, [&](unsigned) {
    for (int i = 0; i < 200; ++i) {
      pto::prefix<SimPlatform>(
          2,
          [&] {
            auto v = counter.load(std::memory_order_relaxed);
            counter.store(v + 1, std::memory_order_relaxed);
          },
          [&] { counter.fetch_add(1, std::memory_order_seq_cst); }, site);
    }
  });
  return {res.totals(), counter.load()};  // host-side load: a raw read
}

TEST(TelemetryRegistry, InternIsStableAndCached) {
  tel::Site* a = tel::Registry::instance().intern("test.intern.a");
  tel::Site* b = tel::Registry::instance().intern("test.intern.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, tel::Registry::instance().intern("test.intern.a"));
  EXPECT_EQ(a->name(), "test.intern.a");
  // The macro caches per call site and agrees with a direct intern.
  auto once = [] { return PTO_TELEMETRY_SITE("test.intern.a"); };
  EXPECT_EQ(once(), once());
  EXPECT_EQ(once(), a);
}

TEST(TelemetryRegistry, ConcurrentHostRegistrationIsSafe) {
  // Many host threads intern overlapping names; every thread must see the
  // same stable pointer per name.
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  std::vector<std::vector<tel::Site*>> seen(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t, &seen] {
      for (int n = 0; n < kNames; ++n) {
        std::string name = "test.reg." + std::to_string(n);
        seen[t].push_back(tel::Registry::instance().intern(name));
      }
    });
  }
  for (auto& th : ts) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  std::set<tel::Site*> distinct(seen[0].begin(), seen[0].end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kNames));
}

TEST(TelemetryRegistry, NativeReadersSeeOnlyPublishedSites) {
  // sites() and the fatal-signal flight dump read the site table without the
  // intern mutex; every entry they see must be a whole, published site.
  std::atomic<bool> done{false};
  std::thread reader([&done] {
    const tel::Registry& reg = tel::Registry::instance();
    while (!done.load()) {
      for (unsigned i = 0, n = reg.site_count(); i < n; ++i) {
        EXPECT_EQ(reg.site(i).id(), i);
        EXPECT_FALSE(reg.site(i).name().empty());
      }
      for (tel::Site* s : tel::Registry::instance().sites()) {
        EXPECT_NE(s, nullptr);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([t] {
      for (int n = 0; n < 32; ++n) {
        tel::Registry::instance().intern("test.publish." + std::to_string(t) +
                                         "." + std::to_string(n));
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true);
  reader.join();
}

TEST(TelemetryRegistry, SimThreadsAccumulateIntoShards) {
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.accum");
  site->reset();
  const ContendedRun run = contended_run(site, /*seed=*/7);
  PrefixStats snap = site->snapshot();
  // The site (sharded, relaxed atomics) must agree exactly with the
  // simulator's own per-thread transaction accounting.
  EXPECT_EQ(snap.attempts, run.sim.tx_started);
  EXPECT_EQ(snap.commits, run.sim.tx_commits);
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    EXPECT_EQ(snap.aborts[c], run.sim.tx_aborts[c]) << "cause " << c;
  }
  // 4 threads x 200 ops each completed exactly once, via commit or fallback.
  EXPECT_EQ(snap.commits + snap.fallbacks, 800u);
  EXPECT_GE(snap.attempts, 800u);
}

TEST(TelemetryRegistry, DisabledSitesRecordNothing) {
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.gated");
  site->reset();
  tel::set_enabled(false);
  const ContendedRun run = contended_run(site, /*seed=*/11);
  PrefixStats snap = site->snapshot();
  EXPECT_EQ(snap.attempts, 0u);
  EXPECT_EQ(snap.commits, 0u);
  EXPECT_EQ(snap.fallbacks, 0u);
  // The workload itself is unaffected by the gate.
  EXPECT_EQ(run.ops, 800u);
  tel::set_enabled(true);
}

TEST(TelemetryRegistry, SnapshotDeterministicAcrossIdenticalSeeds) {
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.determinism");
  site->reset();
  contended_run(site, /*seed=*/1234);
  PrefixStats first = site->snapshot();
  site->reset();
  contended_run(site, /*seed=*/1234);
  PrefixStats second = site->snapshot();
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_EQ(first.fallbacks, second.fallbacks);
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    EXPECT_EQ(first.aborts[c], second.aborts[c]) << "cause " << c;
  }
  // The workload is contended enough to exercise the abort path at all.
  EXPECT_GT(first.total_aborts(), 0u);
}

TEST(TelemetryRegistry, TotalsAndDeltaSumSites) {
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.delta");
  site->reset();
  PrefixStats before = tel::registry_totals();
  contended_run(site, /*seed=*/99);
  PrefixStats delta = tel::registry_delta(before);
  const PrefixStats local = site->snapshot();
  EXPECT_EQ(delta.attempts, local.attempts);
  EXPECT_EQ(delta.commits, local.commits);
  EXPECT_EQ(delta.fallbacks, local.fallbacks);
}

TEST(TelemetryRegistry, NativeTotalsCountEachTransactionOnce) {
  // PTO skiplist ops on two pinned threads: each attempt counts at its
  // prefix site, and its commit or abort counts again at the HTM facade's
  // site. The totals take each transaction once; the facade keeps its row.
  using pto::NativePlatform;
  tel::set_enabled(true);
  tel::Site* facade = pto::htm::detail::native_site();
  EXPECT_TRUE(facade->facade());
  pto::SkipList<NativePlatform> set;
  const PrefixStats before = tel::registry_totals();
  const PrefixStats facade_before = facade->snapshot();
  pto::service::Runtime rt({2, /*pin=*/true});
  rt.run([&](unsigned tid) {
    auto ctx = set.make_ctx();
    pto::SplitMix64 rng(0x5EED + tid);
    for (int i = 0; i < 4000; ++i) {
      const auto k = static_cast<std::int64_t>(rng.next_below(64));
      if ((rng.next() & 1) != 0) {
        set.insert_pto(ctx, k);
      } else {
        set.remove_pto(ctx, k);
      }
    }
  });
  const PrefixStats d = tel::registry_delta(before);
  EXPECT_GT(d.attempts, 0u);
  EXPECT_EQ(d.commits + d.total_aborts(), d.attempts);
  const PrefixStats f = facade->snapshot().zip(facade_before, std::minus<>());
  EXPECT_GT(f.commits, 0u);
  EXPECT_EQ(f.commits, d.commits);
}

/// The whitespace-separated fields of the report row that names `site`;
/// empty when the report has no such row.
std::vector<std::string> report_row(const std::string& report,
                                    const std::string& site) {
  std::istringstream lines(report);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string f; fields >> f;) row.push_back(f);
    if (!row.empty() && row[0] == site) return row;
  }
  return {};
}

TEST(TelemetryRegistry, ReportRowsEverySiteWithEvents) {
  // The PTO_TELEMETRY_REPORT table: a row per site that counted anything,
  // none for an all-zero site, and the facade's row although it counts no
  // attempts (only the commits and aborts of transactions).
  auto& reg = tel::Registry::instance();
  tel::Site* busy = reg.intern("test.report.busy");
  tel::Site* idle = reg.intern("test.report.idle");
  tel::Site* facade = reg.intern_facade("test.report.facade");
  for (tel::Site* s : {busy, idle, facade}) s->reset();
  busy->count(tel::kEventAttempt, 0);
  busy->count(tel::kEventCommit, 0);
  busy->count(tel::kEventAttempt, 0);
  busy->count(tel::kEventAbort, pto::TX_ABORT_CONFLICT);
  busy->count(tel::kEventFallback, 0);
  facade->count(tel::kEventCommit, 0);
  facade->count(tel::kEventAbort, pto::TX_ABORT_CAPACITY);
  std::ostringstream os;
  reg.report(os);
  const std::string out = os.str();
  // Columns: site, attempts, commits, fallbacks, then one per abort cause.
  EXPECT_EQ(report_row(out, "test.report.busy"),
            (std::vector<std::string>{"test.report.busy", "2", "1", "1", "1",
                                      "0", "0", "0", "0", "0"}));
  EXPECT_TRUE(report_row(out, "test.report.idle").empty()) << out;
  EXPECT_EQ(report_row(out, "test.report.facade"),
            (std::vector<std::string>{"test.report.facade", "0", "1", "0",
                                      "0", "1", "0", "0", "0", "0"}));
}

/// Uncontended prefix ops on one virtual thread: every attempt commits.
void solo_run(tel::Site* site) {
  sim::reset_memory();
  pto::Atom<SimPlatform, std::uint64_t> x;
  x.init(0);
  sim::run(1, {}, [&](unsigned) {
    for (int i = 0; i < 50; ++i) {
      pto::prefix<SimPlatform>(
          1,
          [&] {
            x.store(x.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
          },
          [&] { x.fetch_add(1); }, site);
    }
  });
}

/// True when no site has counted anything since `before`.
bool counted_nothing_since(const PrefixStats& before) {
  const PrefixStats d = tel::registry_delta(before);
  return d.attempts == 0 && d.commits == 0 && d.fallbacks == 0 &&
         d.total_aborts() == 0;
}

TEST(TelemetryTaps, ProfAloneFillsLedgerAndCountsNothing) {
  tel::set_enabled(false);
  tel::prof::reset();
  tel::prof::set_enabled(true);
  const PrefixStats before = tel::registry_totals();
  solo_run(tel::Registry::instance().intern("test.tap.prof"));
  tel::prof::set_enabled(false);
  const tel::prof::LedgerTotals lt = tel::prof::ledger_totals();
  EXPECT_GT(lt.fast_spans, 0u);
  EXPECT_GT(lt.total_cycles(), 0u);
  EXPECT_TRUE(counted_nothing_since(before));
}

TEST(TelemetryTaps, CountersAloneLeaveLedgerEmpty) {
  tel::prof::set_enabled(false);
  tel::prof::reset();
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.tap.counters");
  solo_run(site);
  EXPECT_EQ(site->snapshot().commits, 50u);
  const tel::prof::LedgerTotals lt = tel::prof::ledger_totals();
  EXPECT_EQ(lt.fast_spans + lt.fallback_spans, 0u);
  EXPECT_EQ(lt.total_cycles(), 0u);
}

TEST(TelemetryTaps, HistogramsAloneTimeOpsAndCountNothing) {
  tel::set_enabled(false);
  pto::obs::set_hist_on(true);
  pto::obs::reset_latency();
  tel::Site* site = tel::Registry::instance().intern("test.tap.hist");
  const PrefixStats before = tel::registry_totals();
  {
    pto::obs::OpTimer t(site);
    // Outside a simulation a SimPlatform prefix takes its fallback, which
    // the histograms' tap notes.
    pto::prefix<SimPlatform>(2, [] {}, [] {}, site);
  }
  const pto::obs::MergedLatency m = pto::obs::merged_latency(nullptr);
  EXPECT_EQ(m.fallback.samples, 1u);
  EXPECT_EQ(m.fast.samples, 0u);
  EXPECT_TRUE(counted_nothing_since(before));
  pto::obs::reset_latency();
  pto::obs::set_hist_on(false);
}

TEST(TelemetryTrace, ChromeTraceGoldenFile) {
  const char* path = "pto_trace_test.json";
  std::remove(path);
  tel::trace_set_capacity(1 << 14);
  tel::trace_set_path(path);
  tel::set_enabled(true);
  tel::Site* site = tel::Registry::instance().intern("test.trace");
  contended_run(site, /*seed=*/5);  // sim::run flushes the trace on exit
  tel::trace_set_path(nullptr);     // disable + drop buffered events

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::stringstream buf;
  buf << in.rdbuf();

  testjson::Value root;
  ASSERT_TRUE(testjson::parse(buf.str(), &root))
      << "trace is not valid JSON";
  ASSERT_TRUE(root.is_object());

  const testjson::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());

  const testjson::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->find("cycles_per_us"), nullptr);
  EXPECT_EQ(other->find("cycles_per_us")->num(), 3400.0);

  unsigned tx_events = 0, abort_events = 0;
  for (const testjson::Value& e : events->array()) {
    ASSERT_TRUE(e.is_object());
    const testjson::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_str());
    // Every event needs pid/tid; non-metadata events also need a timestamp.
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
    if (ph->str() != "M") {
      EXPECT_NE(e.find("ts"), nullptr);
    }
    if (ph->str() == "X") {
      ++tx_events;
      EXPECT_NE(e.find("dur"), nullptr);
      const testjson::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const testjson::Value* outcome = args->find("outcome");
      ASSERT_NE(outcome, nullptr);
      if (outcome->str() == "abort") {
        ++abort_events;
        const testjson::Value* cause = args->find("cause");
        ASSERT_NE(cause, nullptr) << "abort event without cause label";
        EXPECT_FALSE(cause->str().empty());
      }
    }
  }
  EXPECT_GT(tx_events, 0u) << "no transaction events recorded";
  EXPECT_GT(abort_events, 0u) << "contended run recorded no aborts";
  std::remove(path);
}

TEST(TelemetryTrace, MissLinesNumberedByFirstMiss) {
  // A coherence_miss names its line by the order of the line's first miss
  // in the run, not by its host address, so traces are reproducible.
  const char* path = "pto_trace_lines.json";
  std::remove(path);
  tel::trace_set_capacity(1 << 14);
  tel::trace_set_path(path);
  sim::reset_memory();
  auto* words = static_cast<std::uint64_t*>(sim::alloc(4 * 64));  // 4 lines
  sim::run(2, sim::Config{}, [&](unsigned tid) {
    for (unsigned i = 0; i < 4; ++i) {
      const unsigned line = tid == 0 ? i : 3 - i;
      (void)sim::mem_load(&words[8 * line], 8);
    }
  });
  tel::trace_set_path(nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::stringstream buf;
  buf << in.rdbuf();
  testjson::Value root;
  ASSERT_TRUE(testjson::parse(buf.str(), &root));
  std::vector<std::uint64_t> lines;
  for (const testjson::Value& e : root.find("traceEvents")->array()) {
    if (e.find("name")->str() != "coherence_miss") continue;
    lines.push_back(
        static_cast<std::uint64_t>(e.find("args")->find("line")->num()));
  }
  ASSERT_EQ(lines.size(), 8u) << "each thread misses once on each line";
  EXPECT_EQ(lines.front(), 0u);
  // Dense, in order of first miss: a new line takes the next unused id.
  std::uint64_t next = 0;
  for (std::uint64_t l : lines) {
    EXPECT_LE(l, next);
    if (l == next) ++next;
  }
  EXPECT_EQ(next, 4u);
  std::remove(path);
}

TEST(TelemetryTrace, UnwritablePathWarnsOnce) {
  const char* path = "/nonexistent/dir/pto_trace.json";
  tel::trace_set_path(path);
  const std::uint64_t before = pto::warn_count("trace.open");
  ::testing::internal::CaptureStderr();
  tel::trace_flush();
  tel::trace_flush();
  const std::string err = ::testing::internal::GetCapturedStderr();
  tel::trace_set_path(nullptr);
  EXPECT_EQ(pto::warn_count("trace.open"), before + 2);
  const std::string line = std::string("cannot open PTO_TRACE=") + path;
  const auto at = err.find(line);
  EXPECT_NE(at, std::string::npos) << err;
  EXPECT_EQ(err.find(line, at + 1), std::string::npos) << err;
}

}  // namespace
