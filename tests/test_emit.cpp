// Structured bench emission (telemetry/emit.cpp): JSON escaping of hostile
// bench and series names, and round-trips of the abort buckets, latency
// percentiles, host fields and provenance.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "htm/txcode.h"
#include "json_util.h"
#include "telemetry/emit.h"

namespace {

namespace telemetry = pto::telemetry;
using telemetry::BenchPoint;
using telemetry::StatsFormat;

/// RAII: route emission into a stringstream, restore defaults afterwards.
struct Capture {
  std::ostringstream os;
  Capture() {
    telemetry::set_stats_stream(&os);
    telemetry::set_stats_format(StatsFormat::kJson);
  }
  ~Capture() {
    telemetry::set_stats_format(StatsFormat::kOff);
    telemetry::set_stats_stream(nullptr);
  }
};

BenchPoint sample_point() {
  BenchPoint p;
  p.bench = "fig3a";
  p.series = "Tree(PTO)";
  p.threads = 4;
  p.trials = 5;
  p.ops_per_ms = 123.5;
  p.makespan = 1000;
  p.cpu_cycles = 4000;
  p.sim.ops_completed = 2048;
  p.sim.tx_started = 900;
  p.sim.tx_commits = 800;
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) p.sim.tx_aborts[c] = 0;
  p.sim.tx_aborts[pto::TX_ABORT_CONFLICT] = 61;
  p.sim.tx_aborts[pto::TX_ABORT_CAPACITY] = 7;
  p.sim.tx_aborts[pto::TX_ABORT_EXPLICIT] = 3;
  return p;
}

/// sample_point plus the v2 observability payload (percentiles and per-cause
/// prefix buckets).
BenchPoint obs_point() {
  BenchPoint p = sample_point();
  p.prefix.attempts = 500;
  p.prefix.commits = 450;
  p.prefix.fallbacks = 50;
  p.prefix.aborts[pto::TX_ABORT_CONFLICT] = 40;
  p.prefix.aborts[pto::TX_ABORT_SPURIOUS] = 9;
  p.prefix.aborts[pto::TX_ABORT_OTHER] = 1;
  p.lat = {2048, 400, 700, 1500, 6000, 21000};
  p.lat_fast = {2000, 390, 650, 1200, 5000, 18000};
  p.lat_fallback = {48, 2500, 5000, 9000, 15000, 21000};
  p.lat_sites.push_back({"set.insert", p.lat_fast, p.lat_fallback});
  return p;
}

/// Emit `p` and parse the one record back.
testjson::Value emit_and_parse(const BenchPoint& p) {
  Capture cap;
  telemetry::emit_bench_point(p);
  const std::string text = cap.os.str();
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "expected one line:\n"
                                               << text;
  testjson::Value v;
  EXPECT_TRUE(testjson::parse(text, &v)) << text;
  return v;
}

TEST(Emit, CsvEscapesHostileSeriesNames) {
  // A comma and quotes in both names parse back byte for byte and leave the
  // fields after them alone (the name predates the JSON-only format).
  BenchPoint p = sample_point();
  p.bench = "fig5,b";
  p.series = "Skip(PTO, \"fast\")";
  const testjson::Value v = emit_and_parse(p);
  EXPECT_EQ(v.find("bench")->str(), "fig5,b");
  EXPECT_EQ(v.find("series")->str(), "Skip(PTO, \"fast\")");
  EXPECT_EQ(v.find("threads")->num(), 4.0);
}

TEST(Emit, HostileNamesDoNotShiftV2Columns) {
  // A newline as well: the record stays one line, and the v2 payload after
  // the names still parses.
  BenchPoint p = obs_point();
  p.bench = "native,set\n\"2\"";
  p.series = "Skip(\"PTO\", v2)\n";
  const testjson::Value v = emit_and_parse(p);
  EXPECT_EQ(v.find("bench")->str(), p.bench);
  EXPECT_EQ(v.find("series")->str(), p.series);
  EXPECT_EQ(v.find("latency")->find("p50_ns")->num(), 400.0);
  EXPECT_EQ(v.find("prefix_attempts")->num(), 500.0);
}

TEST(Emit, JsonCsvAbortBucketsRoundTrip) {
  const BenchPoint p = sample_point();
  const testjson::Value v = emit_and_parse(p);
  const testjson::Value* aborts = v.find("aborts");
  ASSERT_NE(aborts, nullptr);

  // Each per-cause bucket appears with the value we put in.
  std::uint64_t json_total = 0;
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    const char* name = pto::tx_code_name(c);
    const testjson::Value* jv = aborts->find(name);
    ASSERT_NE(jv, nullptr) << name;
    ASSERT_TRUE(jv->is_num());
    EXPECT_EQ(static_cast<std::uint64_t>(jv->num()), p.sim.tx_aborts[c])
        << name;
    json_total += static_cast<std::uint64_t>(jv->num());
  }
  const testjson::Value* total = v.find("abort_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(total->num()), json_total);
  EXPECT_EQ(json_total, 71u);

  // Provenance fields are present and non-empty.
  for (const char* key : {"git_sha", "build_type", "fiber_backend"}) {
    const testjson::Value* jv = v.find(key);
    ASSERT_NE(jv, nullptr) << key;
    EXPECT_TRUE(jv->is_str()) << key;
    EXPECT_FALSE(jv->str().empty()) << key;
  }
}

TEST(Emit, SchemaVersionPresentInBothFormats) {
  const testjson::Value v = emit_and_parse(sample_point());
  const testjson::Value* sv = v.find("schema_version");
  ASSERT_NE(sv, nullptr);
  ASSERT_TRUE(sv->is_num());
  EXPECT_EQ(static_cast<unsigned>(sv->num()), telemetry::kStatsSchemaVersion);
  EXPECT_EQ(static_cast<unsigned>(sv->num()), 2u);
}

TEST(Emit, LatencyPercentilesRoundTrip) {
  const testjson::Value v = emit_and_parse(obs_point());
  const testjson::Value* lat = v.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("samples")->num()), 2048u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p50_ns")->num()), 400u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p90_ns")->num()), 700u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p99_ns")->num()), 1500u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p999_ns")->num()), 6000u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("max_ns")->num()), 21000u);
  const testjson::Value* fast = lat->find("fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(fast->find("p99_ns")->num()), 1200u);
  const testjson::Value* fb = lat->find("fallback");
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(fb->find("p50_ns")->num()), 2500u);
  EXPECT_EQ(static_cast<std::uint64_t>(fb->find("max_ns")->num()), 21000u);
}

TEST(Emit, PrefixAbortBucketsRoundTrip) {
  const testjson::Value v = emit_and_parse(obs_point());
  const testjson::Value* pa = v.find("prefix_aborts");
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("conflict")->num()), 40u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("spurious")->num()), 9u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("other")->num()), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("capacity")->num()), 0u);
  EXPECT_EQ(pa->find("started"), nullptr)
      << "started is not an abort cause and must not emit a bucket";
}

TEST(Emit, ProvenanceTimestampsRoundTrip) {
  BenchPoint p = sample_point();
  p.ts_start = "2026-08-07T12:00:00.000Z";
  p.ts_end = "2026-08-07T12:00:01.500Z";
  p.hostname = "bench-host-1";
  p.intervals = 17;
  p.nproc = 6;
  p.htm_backend = "soft";

  const testjson::Value v = emit_and_parse(p);
  EXPECT_EQ(v.find("ts_start")->str(), "2026-08-07T12:00:00.000Z");
  EXPECT_EQ(v.find("ts_end")->str(), "2026-08-07T12:00:01.500Z");
  EXPECT_EQ(v.find("hostname")->str(), "bench-host-1");
  EXPECT_EQ(static_cast<std::uint64_t>(v.find("intervals")->num()), 17u);
  EXPECT_EQ(v.find("nproc")->num(), 6.0);
  EXPECT_EQ(v.find("htm_backend")->str(), "soft");
  // The additions are backward-compatible: schema_version stays 2.
  EXPECT_EQ(static_cast<unsigned>(v.find("schema_version")->num()), 2u);
}

TEST(Emit, ProvenanceDefaultsFilledAtEmitTime) {
  // A point the runner never stamped still emits usable provenance: both
  // timestamps default to "now" and hostname to the machine name.
  const testjson::Value v = emit_and_parse(sample_point());
  const std::string ts = v.find("ts_start")->str();
  EXPECT_EQ(ts.size(), 24u) << ts;  // 2026-08-07T12:00:00.000Z
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
  EXPECT_FALSE(v.find("ts_end")->str().empty());
  EXPECT_FALSE(v.find("hostname")->str().empty());
  EXPECT_EQ(static_cast<std::uint64_t>(v.find("intervals")->num()), 0u);
}

}  // namespace
