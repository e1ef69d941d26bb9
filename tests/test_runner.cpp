// RunnerOptions / ServiceOptions environment parsing: valid overrides apply,
// malformed or zero values fall back to defaults with a (once-per-variable)
// stderr warning so sweep misconfigurations are not invisible. Also the one
// environment reader behind them, and a native point through the bench-point
// bracket.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/native_runner.h"
#include "benchutil/runner.h"
#include "common/env.h"
#include "common/warn.h"
#include "core/prefix.h"
#include "htm/htm.h"
#include "json_util.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "platform/native_platform.h"
#include "service/loadgen.h"
#include "service/runtime.h"
#include "telemetry/emit.h"
#include "telemetry/registry.h"

namespace {

using pto::bench::RunnerOptions;
using pto::service::ServiceOptions;

class RunnerEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("PTO_BENCH_OPS");
    unsetenv("PTO_BENCH_TRIALS");
    unsetenv("PTO_BENCH_MAXT");
    unsetenv("PTO_BENCH_SWEEP");
  }
};

TEST_F(RunnerEnv, ValidOverridesApply) {
  setenv("PTO_BENCH_OPS", "1234", 1);
  setenv("PTO_BENCH_TRIALS", "7", 1);
  setenv("PTO_BENCH_MAXT", "16", 1);
  RunnerOptions o = RunnerOptions::from_env();
  EXPECT_EQ(o.ops_per_thread, 1234u);
  EXPECT_EQ(o.trials, 7u);
  EXPECT_EQ(o.max_threads, 16u);
}

TEST_F(RunnerEnv, MalformedValueWarnsAndKeepsDefault) {
  const RunnerOptions defaults;
  setenv("PTO_BENCH_OPS", "not-a-number", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.ops_per_thread, defaults.ops_per_thread);
  EXPECT_NE(err.find("PTO_BENCH_OPS"), std::string::npos) << err;
  EXPECT_NE(err.find("not-a-number"), std::string::npos) << err;
  // Warned once per variable: a second parse of the same bad value is quiet.
  ::testing::internal::CaptureStderr();
  (void)RunnerOptions::from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(RunnerEnv, ZeroAndTrailingJunkRejected) {
  const RunnerOptions defaults;
  setenv("PTO_BENCH_TRIALS", "0", 1);
  setenv("PTO_BENCH_MAXT", "12abc", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.trials, defaults.trials);
  EXPECT_EQ(o.max_threads, defaults.max_threads);
  EXPECT_NE(err.find("PTO_BENCH_TRIALS"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_BENCH_MAXT"), std::string::npos) << err;
}

TEST_F(RunnerEnv, GeometricSweepDoublesAndIncludesMax) {
  setenv("PTO_BENCH_MAXT", "48", 1);
  setenv("PTO_BENCH_SWEEP", "geom", 1);
  RunnerOptions o = RunnerOptions::from_env();
  EXPECT_TRUE(o.geometric_sweep);
  EXPECT_EQ(pto::bench::sweep_threads(o),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 48}));
  // A power-of-two max is not duplicated.
  setenv("PTO_BENCH_MAXT", "64", 1);
  o = RunnerOptions::from_env();
  EXPECT_EQ(pto::bench::sweep_threads(o),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 64}));
  // Unknown sweep shape warns and stays dense.
  setenv("PTO_BENCH_SWEEP", "cubic", 1);
  ::testing::internal::CaptureStderr();
  o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(o.geometric_sweep);
  EXPECT_NE(err.find("PTO_BENCH_SWEEP"), std::string::npos) << err;
}

class ServiceEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("PTO_SVC_SHARDS");
    unsetenv("PTO_SVC_STRUCT");
    unsetenv("PTO_SVC_PIN");
    unsetenv("PTO_SVC_KEYS");
    unsetenv("PTO_SVC_DIST");
    unsetenv("PTO_SVC_SKEW");
    unsetenv("PTO_SVC_READPCT");
    unsetenv("PTO_SVC_PUTPCT");
    unsetenv("PTO_SVC_OPENLOOP");
    unsetenv("PTO_SVC_SEED");
  }
};

TEST_F(ServiceEnv, ValidOverridesApply) {
  setenv("PTO_SVC_SHARDS", "8", 1);
  setenv("PTO_SVC_STRUCT", "hash", 1);
  setenv("PTO_SVC_PIN", "0", 1);
  setenv("PTO_SVC_KEYS", "4096", 1);
  setenv("PTO_SVC_DIST", "hotset", 1);
  setenv("PTO_SVC_SKEW", "0.5", 1);
  setenv("PTO_SVC_READPCT", "80", 1);
  setenv("PTO_SVC_PUTPCT", "15", 1);
  setenv("PTO_SVC_OPENLOOP", "250000", 1);
  setenv("PTO_SVC_SEED", "9", 1);
  const ServiceOptions o = ServiceOptions::from_env();
  EXPECT_EQ(o.shards, 8u);
  EXPECT_EQ(o.structure, pto::service::Structure::kHash);
  EXPECT_FALSE(o.pin);
  EXPECT_EQ(o.workload.keyspace, 4096u);
  EXPECT_EQ(o.workload.dist, pto::service::Dist::kHotset);
  EXPECT_DOUBLE_EQ(o.workload.theta, 0.5);
  EXPECT_EQ(o.workload.get_pct, 80u);
  EXPECT_EQ(o.workload.put_pct, 15u);
  EXPECT_DOUBLE_EQ(o.workload.openloop_rate, 250000.0);
  EXPECT_EQ(o.workload.seed, 9u);
}

TEST_F(ServiceEnv, MalformedValuesWarnOnceAndKeepDefaults) {
  const ServiceOptions defaults;
  setenv("PTO_SVC_SHARDS", "zero-ish", 1);
  setenv("PTO_SVC_STRUCT", "btree", 1);
  setenv("PTO_SVC_SKEW", "1.7", 1);  // past the theta<1 normalization limit
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.shards, defaults.shards);
  EXPECT_EQ(o.structure, defaults.structure);
  EXPECT_DOUBLE_EQ(o.workload.theta, defaults.workload.theta);
  EXPECT_NE(err.find("PTO_SVC_SHARDS"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_SVC_STRUCT"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_SVC_SKEW"), std::string::npos) << err;
  // warn_once: the same bad values re-parsed stay quiet.
  ::testing::internal::CaptureStderr();
  (void)ServiceOptions::from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(ServiceEnv, MixExceedingHundredPercentWarnsAndResets) {
  setenv("PTO_SVC_READPCT", "90", 1);
  setenv("PTO_SVC_PUTPCT", "40", 1);
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.workload.get_pct, 50u);
  EXPECT_EQ(o.workload.put_pct, 25u);
  EXPECT_NE(err.find("exceed 100"), std::string::npos) << err;
}

TEST_F(ServiceEnv, TinyKeyspaceClampsWithWarning) {
  setenv("PTO_SVC_KEYS", "1", 1);
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.workload.keyspace, 2u);
  EXPECT_NE(err.find("PTO_SVC_KEYS"), std::string::npos) << err;
}

TEST_F(RunnerEnv, MaxThreadsAboveSimulatorLimitClampsWithWarning) {
  setenv("PTO_BENCH_MAXT", "4096", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.max_threads, pto::kMaxThreads);
  EXPECT_NE(err.find("PTO_BENCH_MAXT"), std::string::npos) << err;
  EXPECT_NE(err.find("clamping"), std::string::npos) << err;
  // The simulator limit itself is accepted silently.
  setenv("PTO_BENCH_MAXT", "1024", 1);
  ::testing::internal::CaptureStderr();
  o = RunnerOptions::from_env();
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.max_threads, 1024u);
  EXPECT_EQ(err.find("clamping"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// The one environment reader
// ---------------------------------------------------------------------------

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto i = text.find(needle); i != std::string::npos;
       i = text.find(needle, i + 1)) {
    ++n;
  }
  return n;
}

TEST(EnvReader, MalformedFormsKeepDefaultAndWarnOnce) {
  namespace env = pto::env;
  const struct {
    const char* name;
    const char* value;
    std::function<bool()> keeps_default;  ///< reads `name` once
  } rows[] = {
      {"PTO_CHECK_MAX", "abc",
       [] { return env::u64("PTO_CHECK_MAX", 100, 1, ~0u) == 100; }},
      {"PTO_BENCH_RANGE", "abc",
       [] { return env::u64("PTO_BENCH_RANGE", 512, 2, 1u << 30) == 512; }},
      {"PTO_SIM_SPEED_OPS", "1e5",
       [] { return env::u64("PTO_SIM_SPEED_OPS", 1'000'000) == 1'000'000; }},
      {"PTO_TRACE_CAP", "-5",
       [] {
         return env::u64("PTO_TRACE_CAP", 1u << 18, 1,
                         std::uint64_t{1} << 40) == 1u << 18;
       }},
      {"PTO_OBS_SAMPLE", "+16",
       [] { return env::u64("PTO_OBS_SAMPLE", 1) == 1; }},
      {"PTO_METRICS", "99999999999999999999",  // overflows 64 bits
       [] { return env::u64("PTO_METRICS", 0) == 0; }},
      {"PTO_SVC_HOTFRAC", "0.5x",
       [] { return env::f64("PTO_SVC_HOTFRAC", 0.01, 1e-6, 1.0) == 0.01; }},
      {"PTO_HTM", "sfot",
       [] { return env::choice("PTO_HTM", {"soft", "rtm"}, -1) == -1; }},
      {"PTO_STATS", "xml",
       [] { return env::choice("PTO_STATS", {"json"}, -1) == -1; }},
      {"PTO_CHECK", "yes",
       [] { return env::choice("PTO_CHECK", {"1", "on", "report"}, 0) == 0; }},
  };
  for (const auto& r : rows) {
    SCOPED_TRACE(r.name);
    const std::string key = std::string("env.") + r.name;
    ASSERT_EQ(pto::warn_count(key.c_str()), 0u);
    setenv(r.name, r.value, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(r.keeps_default());
    EXPECT_TRUE(r.keeps_default());  // a second read stays quiet
    const std::string err = ::testing::internal::GetCapturedStderr();
    unsetenv(r.name);
    EXPECT_EQ(pto::warn_count(key.c_str()), 2u);
    EXPECT_EQ(count_of(err, "[pto] warning:"), 1u) << err;
    EXPECT_NE(err.find(std::string(r.name) + "='" + r.value + "'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("using default"), std::string::npos) << err;
  }
}

TEST(EnvReader, EmptyMeansUnsetAndValidFormsParse) {
  namespace env = pto::env;
  setenv("PTO_BENCH_RANGE", "", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::str("PTO_BENCH_RANGE"), nullptr);
  EXPECT_EQ(env::u64("PTO_BENCH_RANGE", 512, 2, 1u << 30), 512u);
  EXPECT_FALSE(env::flag("PTO_BENCH_RANGE"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  setenv("PTO_BENCH_RANGE", "18446744073709551615", 1);
  EXPECT_EQ(env::u64("PTO_BENCH_RANGE", 1), 18446744073709551615ull);
  setenv("PTO_BENCH_RANGE", "0.25", 1);
  EXPECT_DOUBLE_EQ(env::f64("PTO_BENCH_RANGE", 1.0, 0.0, 1.0), 0.25);
  setenv("PTO_BENCH_RANGE", "0", 1);
  EXPECT_FALSE(env::flag("PTO_BENCH_RANGE"));
  setenv("PTO_BENCH_RANGE", "csv", 1);
  EXPECT_EQ(env::choice("PTO_BENCH_RANGE", {"json", "csv"}, -1), 1);
  EXPECT_TRUE(env::flag("PTO_BENCH_RANGE"));
  unsetenv("PTO_BENCH_RANGE");
}

// ---------------------------------------------------------------------------
// A native point through the bench-point bracket
// ---------------------------------------------------------------------------

std::vector<testjson::Value> json_lines(const std::string& text) {
  std::vector<testjson::Value> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    testjson::Value v;
    EXPECT_TRUE(testjson::parse(line, &v)) << line;
    out.push_back(std::move(v));
  }
  return out;
}

double num(const testjson::Value& v, const char* key) {
  const testjson::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return f != nullptr ? f->num() : -1.0;
}

constexpr std::uint64_t kPointOps = 3000;  // per thread per trial
constexpr double kPointTotal = kPointOps * 2 * 2;  // x threads x trials

using Counter = pto::Atom<pto::NativePlatform, std::uint64_t>;
using Body = std::function<void(unsigned, std::uint64_t)>;

/// One op: an increment of `counter` through one instrumented prefix.
void bump(Counter& counter) {
  pto::prefix<pto::NativePlatform>(
      2,
      [&] {
        auto v = counter.load(std::memory_order_relaxed);
        counter.store(v + 1, std::memory_order_relaxed);
      },
      [&] { counter.fetch_add(1, std::memory_order_seq_cst); },
      PTO_TELEMETRY_SITE("native_point.prefix"));
}

/// RAII: route bench_point records into a stringstream.
struct StatsCapture {
  std::ostringstream os;
  StatsCapture() {
    pto::telemetry::set_stats_format(pto::telemetry::StatsFormat::kJson);
    pto::telemetry::set_stats_stream(&os);
  }
  ~StatsCapture() {
    pto::telemetry::set_stats_stream(nullptr);
    pto::telemetry::set_stats_format(pto::telemetry::StatsFormat::kOff);
  }
};

/// Two native points, "first" then "second", of 2 threads x 2 trials, each
/// op timed under one site and run through one prefix; returns the emitted
/// bench_point records.
std::vector<testjson::Value> run_two_native_points() {
  namespace tel = pto::telemetry;
  RunnerOptions opts;
  opts.ops_per_thread = kPointOps;
  opts.trials = 2;
  tel::Site* op = tel::Registry::instance().intern("native_point.op");
  auto make_fixture = [op] {
    auto counter = std::make_shared<Counter>();
    counter->init(0);
    return Body([counter, op](unsigned, std::uint64_t ops) {
      for (std::uint64_t i = 0; i < ops; ++i) {
        pto::obs::OpTimer t(op);
        bump(*counter);
      }
    });
  };
  pto::service::Runtime rt({2, /*pin=*/true});
  StatsCapture stats;
  for (const char* series : {"first", "second"}) {
    EXPECT_GT(pto::bench::native_measure_point(opts, rt, make_fixture,
                                               "native_point", series),
              0.0);
  }
  std::vector<testjson::Value> points = json_lines(stats.os.str());
  EXPECT_EQ(points.size(), 2u) << stats.os.str();  // one record per point
  for (const testjson::Value& p : points) {
    EXPECT_EQ(p.find("bench")->str(), "native_point");
    EXPECT_EQ(num(p, "threads"), 2.0);
    EXPECT_EQ(num(p, "trials"), 2.0);
    EXPECT_EQ(num(p, "ops"), kPointTotal);
  }
  return points;
}

TEST(NativePoint, EachPointCarriesOnlyItsOwnLatencySamples) {
  pto::obs::set_hist_on(true);
  const std::vector<testjson::Value> points = run_two_native_points();
  pto::obs::set_hist_on(false);
  pto::obs::reset_latency();
  // Latency is reset when a point opens: the second point carries none of
  // the first point's samples.
  for (const testjson::Value& p : points) {
    SCOPED_TRACE(p.find("series")->str());
    EXPECT_EQ(num(*p.find("latency"), "samples"), kPointTotal);
  }
}

TEST(NativePoint, IntervalsSumToTheirPoint) {
  namespace metrics = pto::metrics;
  // Histograms stay off: the sampler then reads only atomic counters while
  // the workers run.
  std::ostringstream stream;
  metrics::set_stream(&stream);
  metrics::Config cfg;
  cfg.interval_ms = 1;
  metrics::configure(cfg);
  const std::vector<testjson::Value> points = run_two_native_points();
  metrics::configure({});
  metrics::set_stream(nullptr);

  const std::vector<testjson::Value> records = json_lines(stream.str());
  for (const testjson::Value& p : points) {
    const std::string& series = p.find("series")->str();
    SCOPED_TRACE(series);
    double intervals = 0, attempts = 0, commits = 0, fallbacks = 0;
    for (const testjson::Value& r : records) {
      if (r.find("type")->str() != "metrics_interval") continue;
      if (r.find("series")->str() != series) continue;
      ++intervals;
      const testjson::Value& d = *r.find("prefix");
      attempts += num(d, "attempts");
      commits += num(d, "commits");
      fallbacks += num(d, "fallbacks");
    }
    EXPECT_GE(intervals, 1.0);
    EXPECT_EQ(num(p, "intervals"), intervals);
    EXPECT_EQ(num(p, "prefix_attempts"), attempts);
    EXPECT_EQ(num(p, "prefix_commits"), commits);
    EXPECT_EQ(num(p, "prefix_fallbacks"), fallbacks);
    // Every op ran the prefix once.
    EXPECT_EQ(commits + fallbacks, kPointTotal);
  }
}

TEST(NativePoint, CountsOnlyItsMeasuredRuns) {
  // Each trial's fixture runs kSetupOps prefix ops while it is built; the
  // point counts only the kPointOps each worker runs in the measured run.
  constexpr std::uint64_t kSetupOps = 5000;
  RunnerOptions opts;
  opts.ops_per_thread = kPointOps;
  opts.trials = 2;
  auto make_fixture = [] {
    auto counter = std::make_shared<Counter>();
    counter->init(0);
    for (std::uint64_t i = 0; i < kSetupOps; ++i) bump(*counter);
    return Body([counter](unsigned, std::uint64_t ops) {
      for (std::uint64_t i = 0; i < ops; ++i) bump(*counter);
    });
  };
  pto::service::Runtime rt({2, /*pin=*/true});
  StatsCapture stats;
  pto::bench::native_measure_point(opts, rt, make_fixture, "native_point",
                                   "setup");
  const std::vector<testjson::Value> points = json_lines(stats.os.str());
  ASSERT_EQ(points.size(), 1u) << stats.os.str();
  const testjson::Value& p = points[0];
  const double attempts = num(p, "prefix_attempts");
  const double commits = num(p, "prefix_commits");
  double aborts = 0;
  for (const auto& [cause, n] : p.find("prefix_aborts")->object()) {
    aborts += n.num();
  }
  EXPECT_EQ(commits + num(p, "prefix_fallbacks"), kPointTotal);
  EXPECT_EQ(commits + aborts, attempts);
  EXPECT_LE(attempts, 2 * kPointTotal);  // at most 2 attempts per op
}

TEST(BenchPointHost, EachClockNamesItsHost) {
  // Both clocks stamp the CPU count; a virtual point names simx without
  // probing the native backend, and a wall-clock point names the backend its
  // run used.
  namespace htm = pto::htm;
  const bool probed_before = htm::detail::g_backend.value.load() != 0;
  RunnerOptions opts;
  opts.ops_per_thread = 100;
  opts.trials = 1;
  StatsCapture stats;

  struct Fixture {
    void prefill(std::uint64_t) {}
    void thread_body(unsigned, std::uint64_t ops) {
      for (std::uint64_t i = 0; i < ops; ++i) pto::sim::op_done();
    }
  };
  pto::bench::Figure fig;
  fig.id = "host";
  fig.xs = {1};
  pto::bench::run_variant<Fixture>(fig, opts, pto::sim::Config{}, "virtual",
                                   [] { return new Fixture(); });
  if (!probed_before) {
    EXPECT_EQ(htm::detail::g_backend.value.load(), 0)
        << "a virtual point probed the native backend";
  }
  pto::service::Runtime rt({1, /*pin=*/true});
  pto::bench::native_measure_point(
      opts, rt, [] { return Body([](unsigned, std::uint64_t) {}); }, "host",
      "wall");

  const std::vector<testjson::Value> points = json_lines(stats.os.str());
  ASSERT_EQ(points.size(), 2u) << stats.os.str();
  for (const testjson::Value& p : points) {
    EXPECT_EQ(num(p, "nproc"), pto::service::Runtime::allowed_cpus());
  }
  EXPECT_EQ(points[0].find("htm_backend")->str(), "simx");
  EXPECT_EQ(points[1].find("htm_backend")->str(),
            htm::backend() == htm::Backend::kRTM ? "rtm" : "soft");
}

}  // namespace
