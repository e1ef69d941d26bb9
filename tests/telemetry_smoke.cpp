// telemetry_smoke — run one small bench point through the simulated runner
// (run_variant) with JSON stats emission and validate that the record parses
// and carries the full schema (throughput, aborts by every cause, fallback
// fraction, cycle share, host fields), counting only the measured run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "benchutil/runner.h"
#include "core/prefix.h"
#include "json_util.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "telemetry/emit.h"
#include "telemetry/registry.h"

namespace {

using pto::SimPlatform;
namespace sim = pto::sim;
namespace tel = pto::telemetry;
namespace bench = pto::bench;

TEST(TelemetrySmoke, BenchPointEmitsParsableJsonWithRequiredKeys) {
  tel::set_stats_format(tel::StatsFormat::kJson);
  std::ostringstream out;
  tel::set_stats_stream(&out);

  bench::RunnerOptions opts;
  opts.ops_per_thread = 200;
  opts.trials = 1;
  sim::Config cfg;

  // One counter bumped through the instrumented prefix per op. The prefill
  // bumps it too, on the host; the point must not count those.
  struct Fixture {
    pto::Atom<SimPlatform, std::uint64_t> counter;
    void bump() {
      pto::prefix<SimPlatform>(
          2,
          [&] {
            auto v = counter.load(std::memory_order_relaxed);
            counter.store(v + 1, std::memory_order_relaxed);
          },
          [&] { counter.fetch_add(1, std::memory_order_seq_cst); },
          PTO_TELEMETRY_SITE("smoke.op"));
    }
    void prefill(std::uint64_t) {
      counter.init(0);
      for (int i = 0; i < 50; ++i) bump();
    }
    void thread_body(unsigned, std::uint64_t ops) {
      for (std::uint64_t i = 0; i < ops; ++i) {
        bump();
        sim::op_done();
      }
    }
  };

  bench::Figure fig;
  fig.id = "smoke";
  fig.xs = {2};
  bench::run_variant<Fixture>(fig, opts, cfg, "Counter(PTO)",
                              [] { return new Fixture(); });
  const double mean = fig.series.at(0).y.at(0);
  tel::set_stats_stream(nullptr);
  tel::set_stats_format(tel::StatsFormat::kOff);
  EXPECT_GT(mean, 0.0);

  // Exactly one record, one line.
  std::string text = out.str();
  ASSERT_FALSE(text.empty()) << "no record emitted";
  ASSERT_EQ(text.find('\n'), text.size() - 1) << "expected one line:\n"
                                              << text;

  testjson::Value rec;
  ASSERT_TRUE(testjson::parse(text, &rec)) << "record is not valid JSON:\n"
                                           << text;
  ASSERT_TRUE(rec.is_object());

  for (const char* key :
       {"type", "bench", "series", "threads", "trials", "ops", "ops_per_ms",
        "makespan_cycles", "cpu_cycles", "tx_started", "tx_commits",
        "tx_cycles", "tx_cycle_share", "aborts", "abort_total", "fences",
        "fences_elided", "allocs", "frees", "prefix_attempts",
        "prefix_commits", "prefix_fallbacks", "fallback_fraction", "nproc",
        "htm_backend"}) {
    EXPECT_NE(rec.find(key), nullptr) << "missing key " << key;
  }

  EXPECT_EQ(rec.find("type")->str(), "bench_point");
  EXPECT_EQ(rec.find("bench")->str(), "smoke");
  EXPECT_EQ(rec.find("series")->str(), "Counter(PTO)");
  EXPECT_EQ(rec.find("threads")->num(), 2.0);
  EXPECT_EQ(rec.find("trials")->num(), 1.0);
  EXPECT_EQ(rec.find("ops")->num(), 400.0);  // 2 threads x 200 ops
  EXPECT_GT(rec.find("ops_per_ms")->num(), 0.0);
  // A virtual point names simx as its backend, never a probed native one.
  EXPECT_GE(rec.find("nproc")->num(), 1.0);
  EXPECT_EQ(rec.find("htm_backend")->str(), "simx");

  // Aborts must be broken out by every cause the codebase knows about.
  const testjson::Value* aborts = rec.find("aborts");
  ASSERT_TRUE(aborts->is_object());
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    EXPECT_NE(aborts->find(pto::tx_code_name(c)), nullptr)
        << "missing abort cause " << pto::tx_code_name(c);
  }

  // Every measured op went through the instrumented prefix exactly once;
  // the prefill's host-side ops are not counted.
  const double commits = rec.find("prefix_commits")->num();
  const double fallbacks = rec.find("prefix_fallbacks")->num();
  EXPECT_EQ(commits + fallbacks, 400.0);
  const double frac = rec.find("fallback_fraction")->num();
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  const double share = rec.find("tx_cycle_share")->num();
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
}

}  // namespace
