// pto::metrics interval streaming: zero virtual cost on simx, the
// sum-of-interval-deltas == end-of-run-aggregate invariant for every sampled
// source (telemetry counters, obs histograms under thread churn, prof cycle
// ledgers), reset re-basing, watchdog rules, and warn_once forwarding.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/warn.h"
#include "core/prefix.h"
#include "json_util.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "platform/platform.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"

namespace {

namespace metrics = pto::metrics;
namespace telemetry = pto::telemetry;
namespace obs = pto::obs;
namespace prof = pto::telemetry::prof;
namespace sim = pto::sim;
using pto::SimPlatform;

/// RAII: arm metrics into a stringstream, disarm + restore on destruction.
struct Capture {
  std::ostringstream os;
  explicit Capture(metrics::Config cfg) {
    metrics::set_stream(&os);
    metrics::configure(cfg);
  }
  ~Capture() {
    metrics::configure({});  // interval 0: disarm
    metrics::set_stream(nullptr);
  }
  std::vector<testjson::Value> records() const {
    std::vector<testjson::Value> out;
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      testjson::Value v;
      EXPECT_TRUE(testjson::parse(line, &v)) << line;
      out.push_back(std::move(v));
    }
    return out;
  }
};

std::uint64_t u64(const testjson::Value& v, const char* key) {
  const testjson::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return f != nullptr ? static_cast<std::uint64_t>(f->num()) : 0;
}

bool is_type(const testjson::Value& v, const char* t) {
  const testjson::Value* f = v.find("type");
  return f != nullptr && f->is_str() && f->str() == t;
}

/// Shared-counter prefix workload: every op runs the real tx path through an
/// interned telemetry site, then charges `weight` bench-op units so virtual
/// clocks climb fast enough to cross 1-virtual-ms tick boundaries.
sim::RunResult tx_workload(telemetry::Site* site, unsigned nthreads, int ops,
                           std::uint64_t seed, std::uint64_t weight = 50) {
  sim::reset_memory();
  pto::Atom<SimPlatform, std::uint64_t> acc;
  acc.init(0);
  sim::Config cfg;
  cfg.seed = seed;
  return sim::run(nthreads, cfg, [&](unsigned tid) {
    for (int i = 0; i < ops; ++i) {
      pto::prefix<SimPlatform>(
          2,
          [&] {
            acc.store(acc.load(std::memory_order_relaxed) + tid + 1,
                      std::memory_order_relaxed);
          },
          [&] { acc.fetch_add(tid + 1); }, site);
      sim::op_done(weight);
    }
  });
}

TEST(Metrics, SimVirtualClocksIdenticalArmedVsOff) {
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.zerocost");
  auto clocks = [&] { return tx_workload(site, 4, 3000, 42).clocks; };

  ASSERT_FALSE(metrics::armed());
  const std::vector<std::uint64_t> off = clocks();

  std::vector<std::uint64_t> on;
  std::uint64_t ticks = 0;
  {
    metrics::Config cfg;
    cfg.interval_ms = 1;
    Capture cap(cfg);
    on = clocks();
    ticks = metrics::intervals_emitted();
  }
  // The instrumented run must have actually ticked (otherwise this test
  // proves nothing) and every virtual clock must be byte-identical.
  EXPECT_GE(ticks, 2u) << "workload too short to cross a 1-virtual-ms tick";
  EXPECT_EQ(off, on);
}

TEST(Metrics, SimSumOfIntervalDeltasEqualsAggregate) {
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.telescope");
  metrics::Config cfg;
  cfg.interval_ms = 1;
  Capture cap(cfg);

  const pto::PrefixStats before = telemetry::registry_totals();
  tx_workload(site, 2, 4000, 7);
  const pto::PrefixStats delta = telemetry::registry_delta(before);
  ASSERT_GT(delta.attempts, 0u);

  std::uint64_t attempts = 0, commits = 0, fallbacks = 0, aborts = 0;
  std::uint64_t site_attempts = 0;
  std::uint64_t prev_vt1 = 0;
  unsigned intervals = 0;
  for (const auto& r : cap.records()) {
    if (!is_type(r, "metrics_interval")) continue;
    ++intervals;
    // Sim intervals tile virtual time within the run.
    EXPECT_EQ(u64(r, "vt0"), prev_vt1);
    EXPECT_GE(u64(r, "vt1"), u64(r, "vt0"));
    prev_vt1 = u64(r, "vt1");
    const testjson::Value* p = r.find("prefix");
    ASSERT_NE(p, nullptr);
    attempts += u64(*p, "attempts");
    commits += u64(*p, "commits");
    fallbacks += u64(*p, "fallbacks");
    aborts += u64(*p, "aborts_total");
    const testjson::Value* sites = r.find("sites");
    ASSERT_NE(sites, nullptr);
    for (const auto& s : sites->array()) {
      if (s.find("site")->str() == "metrics.telescope") {
        site_attempts += u64(s, "attempts");
      }
    }
  }
  // Boundary tick(s) plus the trailing partial emitted by sim_run_end.
  EXPECT_GE(intervals, 2u);
  EXPECT_EQ(attempts, delta.attempts);
  EXPECT_EQ(commits, delta.commits);
  EXPECT_EQ(fallbacks, delta.fallbacks);
  EXPECT_EQ(aborts, delta.total_aborts());
  // The per-site breakdown telescopes too, not just the rollup.
  EXPECT_EQ(site_attempts, delta.attempts);
}

TEST(Metrics, SumOfDeltasSurvivesRegistryReset) {
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.rebase");
  metrics::Config cfg;
  cfg.interval_ms = 1;
  Capture cap(cfg);

  tx_workload(site, 2, 2500, 11);
  const std::uint64_t run1 = site->snapshot().attempts;
  ASSERT_GT(run1, 0u);
  // An explicit reset shrinks every counter; the next delta must re-base
  // (count events since the reset) instead of underflowing.
  telemetry::Registry::instance().reset_all();
  tx_workload(site, 2, 2500, 13);
  const std::uint64_t run2 = site->snapshot().attempts;
  ASSERT_GT(run2, 0u);

  std::uint64_t summed = 0;
  for (const auto& r : cap.records()) {
    if (!is_type(r, "metrics_interval")) continue;
    const testjson::Value* sites = r.find("sites");
    for (const auto& s : sites->array()) {
      if (s.find("site")->str() == "metrics.rebase") {
        const std::uint64_t a = u64(s, "attempts");
        // No underflow artifact: one interval can never exceed the total.
        EXPECT_LE(a, run1 + run2);
        summed += a;
      }
    }
  }
  EXPECT_EQ(summed, run1 + run2);
}

TEST(Metrics, WallObsSampleTotalsTelescopeUnderThreadChurn) {
  obs::set_hist_on(true);
  obs::reset_latency();
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.churn");

  metrics::Config cfg;
  cfg.interval_ms = 100000;  // sampler never self-ticks; forced ticks only
  Capture cap(cfg);
  metrics::point_begin("churn_bench", "s1", 3, /*wall_clock=*/true);

  auto record_n = [&](unsigned nthreads, int per_thread) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < nthreads; ++t) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < per_thread; ++i) {
          obs::record_latency(site, i % 4 == 0, 100 + t);
        }
      });
    }
    for (auto& th : ts) th.join();
  };

  // Phase 1: three threads record, exit (their histogram blocks survive),
  // tick at quiescence. Phase 2: two *new* threads, then the point closes
  // with the trailing tick.
  record_n(3, 500);
  metrics::force_tick();
  record_n(2, 300);
  metrics::point_end();

  std::uint64_t samples = 0;
  double prev_t1 = 0.0;
  unsigned with_obs = 0;
  for (const auto& r : cap.records()) {
    if (!is_type(r, "metrics_interval")) continue;
    EXPECT_EQ(r.find("mode")->str(), "wall");
    EXPECT_DOUBLE_EQ(r.find("t0_ms")->num(), prev_t1);
    prev_t1 = r.find("t1_ms")->num();
    EXPECT_EQ(r.find("bench")->str(), "churn_bench");
    const testjson::Value* o = r.find("obs");
    ASSERT_NE(o, nullptr);
    ++with_obs;
    samples += u64(*o, "samples");
  }
  EXPECT_GE(with_obs, 2u);
  EXPECT_EQ(samples, 3u * 500 + 2u * 300);

  obs::set_hist_on(false);
  obs::reset_latency();
}

TEST(Metrics, SimProfLedgerCyclesTelescope) {
  prof::set_enabled(true);
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.profledger");
  {
    metrics::Config cfg;
    cfg.interval_ms = 1;
    Capture cap(cfg);

    const prof::LedgerTotals before = prof::ledger_totals();
    tx_workload(site, 2, 3000, 23);
    const prof::LedgerTotals after = prof::ledger_totals();
    ASSERT_GT(after.total_cycles(), before.total_cycles());

    std::uint64_t cycles = 0, fast_spans = 0;
    unsigned with_prof = 0;
    for (const auto& r : cap.records()) {
      if (!is_type(r, "metrics_interval")) continue;
      const testjson::Value* p = r.find("prof");
      ASSERT_NE(p, nullptr);
      ++with_prof;
      fast_spans += u64(*p, "fast_spans");
      const testjson::Value* cl = p->find("cycles");
      ASSERT_NE(cl, nullptr);
      for (const auto& [name, v] : cl->object()) {
        cycles += static_cast<std::uint64_t>(v.num());
      }
    }
    EXPECT_GE(with_prof, 2u);
    EXPECT_EQ(cycles, after.total_cycles() - before.total_cycles());
    EXPECT_EQ(fast_spans, after.fast_spans - before.fast_spans);
  }
  prof::set_enabled(false);
}

TEST(Metrics, WatchdogFallbackRateFiresInStream) {
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.watchdog");
  metrics::Config cfg;
  cfg.interval_ms = 1;
  cfg.watch = "fallback_rate>0.25,abort_storm";
  Capture cap(cfg);
  EXPECT_EQ(metrics::watch_violations(), 0u);

  sim::reset_memory();
  sim::Config scfg;
  scfg.seed = 5;
  sim::run(2, scfg, [&](unsigned) {
    // Zero prefix attempts: every op is a fallback, rate 1.0 > 0.25.
    for (int i = 0; i < 32; ++i) {
      pto::prefix<SimPlatform>(0, [] {}, [] {}, site);
      sim::op_done();
    }
  });

  EXPECT_GE(metrics::watch_violations(), 1u);
  bool saw_watch = false;
  for (const auto& r : cap.records()) {
    if (!is_type(r, "watch")) continue;
    saw_watch = true;
    EXPECT_EQ(r.find("rule")->str(), "fallback_rate");
    EXPECT_GT(r.find("value")->num(), 0.25);
  }
  EXPECT_TRUE(saw_watch);
}

TEST(Metrics, WarnOnceForwardsToStreamOnce) {
  metrics::Config cfg;
  cfg.interval_ms = 1;
  Capture cap(cfg);

  EXPECT_TRUE(pto::warn_once("test.metrics.forward", "weight %d kg", 12));
  EXPECT_FALSE(pto::warn_once("test.metrics.forward", "weight %d kg", 13));
  EXPECT_EQ(pto::warn_count("test.metrics.forward"), 2u);

  unsigned warnings = 0;
  for (const auto& r : cap.records()) {
    if (!is_type(r, "warning")) continue;
    if (r.find("key")->str() != "test.metrics.forward") continue;
    ++warnings;
    EXPECT_EQ(r.find("msg")->str(), "weight 12 kg");
  }
  EXPECT_EQ(warnings, 1u);
}

TEST(Metrics, FlushEmitsTrailerWithCounts) {
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.flushcount");
  metrics::Config cfg;
  cfg.interval_ms = 1;
  Capture cap(cfg);
  tx_workload(site, 1, 2000, 3);
  metrics::flush();

  const auto recs = cap.records();
  ASSERT_FALSE(recs.empty());
  ASSERT_TRUE(is_type(recs.front(), "metrics_meta"));
  const auto& last = recs.back();
  ASSERT_TRUE(is_type(last, "metrics_flush"));
  EXPECT_EQ(u64(last, "intervals"), metrics::intervals_emitted());
  // seq is contiguous across every record type.
  std::uint64_t seq = 0;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(u64(recs[i], "seq"), ++seq);
  }
}

TEST(Metrics, StreamAndPromFailuresWarnSeparately) {
  // An unopenable NDJSON stream must not silence the Prometheus file's own
  // write failure: each output warns once for itself.
  metrics::Config cfg;
  cfg.interval_ms = 100000;  // sampler never self-ticks; forced ticks only
  cfg.out_path = "/nonexistent/dir/pto_metrics.ndjson";
  cfg.prom_path = "/nonexistent/dir/pto_metrics.prom";
  ::testing::internal::CaptureStderr();
  metrics::configure(cfg);
  metrics::force_tick();
  metrics::configure({});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot open PTO_METRICS_OUT=" + cfg.out_path),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("cannot write PTO_METRICS_PROM=" + cfg.prom_path),
            std::string::npos)
      << err;
}

TEST(Metrics, DisarmedIsInert) {
  ASSERT_FALSE(metrics::armed());
  const std::uint64_t before = metrics::intervals_emitted();
  telemetry::Site* site =
      telemetry::Registry::instance().intern("metrics.inert");
  tx_workload(site, 2, 2000, 9);
  EXPECT_EQ(metrics::intervals_emitted(), before);
  EXPECT_EQ(metrics::detail::g_sim_next_tick, ~std::uint64_t{0});
}

}  // namespace
