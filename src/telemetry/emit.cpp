#include "telemetry/emit.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <ostream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/buildinfo.h"
#include "common/env.h"
#include "telemetry/registry.h"

namespace pto::telemetry {

namespace {

struct State {
  StatsFormat format = env::choice("PTO_STATS", {"json"}, -1) == 0
                           ? StatsFormat::kJson
                           : StatsFormat::kOff;
  std::ostream* os = nullptr;  ///< nullptr = stdout
};

State& state() {
  static State s;
  return s;
}

std::ostream& out() {
  State& s = state();
  return s.os != nullptr ? *s.os : std::cout;
}

double tx_cycle_share(const BenchPoint& p) {
  return p.cpu_cycles == 0 ? 0.0
                           : static_cast<double>(p.sim.tx_cycles) /
                                 static_cast<double>(p.cpu_cycles);
}

const std::string& or_default(const std::string& v, const char* dflt) {
  static thread_local std::string tmp;
  if (!v.empty()) return v;
  tmp = dflt;
  return tmp;
}

/// The summary's fields without the enclosing braces, so the top-level
/// "latency" object can append the fast/fallback/sites members after them.
void json_summary_fields(std::ostream& os, const obs::HistSummary& s) {
  os << "\"samples\":" << s.samples << ",\"p50_ns\":" << s.p50
     << ",\"p90_ns\":" << s.p90 << ",\"p99_ns\":" << s.p99
     << ",\"p999_ns\":" << s.p999 << ",\"max_ns\":" << s.max;
}

void json_summary(std::ostream& os, const obs::HistSummary& s) {
  os << "{";
  json_summary_fields(os, s);
  os << "}";
}

void emit_json(std::ostream& os, const BenchPoint& p) {
  os << "{\"type\":\"bench_point\",\"schema_version\":" << kStatsSchemaVersion
     << ",\"bench\":";
  json_str(os, p.bench);
  os << ",\"series\":";
  json_str(os, p.series);
  os << ",\"threads\":" << p.threads << ",\"trials\":" << p.trials
     << ",\"ops\":" << p.sim.ops_completed << ",\"ops_per_ms\":";
  json_num(os, p.ops_per_ms);
  os << ",\"makespan_cycles\":" << p.makespan
     << ",\"cpu_cycles\":" << p.cpu_cycles
     << ",\"tx_started\":" << p.sim.tx_started
     << ",\"tx_commits\":" << p.sim.tx_commits
     << ",\"tx_cycles\":" << p.sim.tx_cycles << ",\"tx_cycle_share\":";
  json_num(os, tx_cycle_share(p));
  os << ",\"aborts\":{";
  for (unsigned c = 0; c < kTxCodeCount; ++c) {
    os << (c == 0 ? "\"" : ",\"") << tx_code_name(c)
       << "\":" << p.sim.tx_aborts[c];
  }
  os << "},\"abort_total\":" << p.sim.total_aborts()
     << ",\"fences\":" << p.sim.fences
     << ",\"fences_elided\":" << p.sim.fences_elided
     << ",\"allocs\":" << p.sim.allocs << ",\"frees\":" << p.sim.frees
     << ",\"prefix_attempts\":" << p.prefix.attempts
     << ",\"prefix_commits\":" << p.prefix.commits
     << ",\"prefix_fallbacks\":" << p.prefix.fallbacks
     << ",\"fallback_fraction\":";
  json_num(os, p.prefix.fallback_rate());
  // v2: per-cause prefix abort buckets — on native runs this is where the
  // decoded RTM/SoftHTM abort causes land (sim.tx_aborts stays zero there).
  os << ",\"prefix_aborts\":{";
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    os << (c == 1 ? "\"" : ",\"") << tx_code_name(c)
       << "\":" << p.prefix.aborts[c];
  }
  os << "},\"latency\":{";
  json_summary_fields(os, p.lat);
  os << ",\"fast\":";
  json_summary(os, p.lat_fast);
  os << ",\"fallback\":";
  json_summary(os, p.lat_fallback);
  if (!p.lat_sites.empty()) {
    os << ",\"sites\":[";
    for (std::size_t i = 0; i < p.lat_sites.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"site\":";
      json_str(os, p.lat_sites[i].site);
      os << ",\"fast\":";
      json_summary(os, p.lat_sites[i].fast);
      os << ",\"fallback\":";
      json_summary(os, p.lat_sites[i].fallback);
      os << "}";
    }
    os << "]";
  }
  os << "},\"git_sha\":";
  json_str(os, or_default(p.git_sha, build_git_sha()));
  os << ",\"build_type\":";
  json_str(os, or_default(p.build_type, build_type()));
  os << ",\"fiber_backend\":";
  json_str(os, or_default(p.fiber_backend, fiber_backend()));
  os << ",\"nproc\":" << p.nproc << ",\"htm_backend\":";
  json_str(os, p.htm_backend);
  const std::string now = iso8601_now();
  os << ",\"ts_start\":";
  json_str(os, or_default(p.ts_start, now.c_str()));
  os << ",\"ts_end\":";
  json_str(os, or_default(p.ts_end, now.c_str()));
  os << ",\"hostname\":";
  json_str(os, or_default(p.hostname, host_name().c_str()));
  os << ",\"intervals\":" << p.intervals;
  os << "}\n";
}

}  // namespace

StatsFormat stats_format() { return state().format; }

void set_stats_format(StatsFormat f) {
  state().format = f;
  if (f != StatsFormat::kOff) set_enabled(true);
}

void set_stats_stream(std::ostream* os) { state().os = os; }

std::string iso8601_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t t = system_clock::to_time_t(now);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  const auto ms = static_cast<int>(
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000);
  char buf[40];
  const std::size_t n =
      std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S", &tm);
  std::snprintf(buf + n, sizeof buf - n, ".%03dZ", ms);
  return buf;
}

const std::string& host_name() {
  static const std::string h = [] {
#if defined(_WIN32)
    return std::string("unknown");
#else
    char buf[256];
    if (::gethostname(buf, sizeof buf) == 0) {
      buf[sizeof buf - 1] = '\0';
      return std::string(buf);
    }
    return std::string("unknown");
#endif
  }();
  return h;
}

void json_str(std::string& o, std::string_view v) {
  o += '"';
  for (char c : v) {
    switch (c) {
      case '"': o += "\\\""; break;
      case '\\': o += "\\\\"; break;
      case '\n': o += "\\n"; break;
      case '\t': o += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          o += buf;
        } else {
          o += c;
        }
    }
  }
  o += '"';
}

void json_num(std::string& o, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  o += buf;
}

void json_str(std::ostream& os, std::string_view v) {
  std::string o;
  json_str(o, v);
  os << o;
}

void json_num(std::ostream& os, double v) {
  std::string o;
  json_num(o, v);
  os << o;
}

void emit_bench_point(const BenchPoint& p) {
  if (state().format == StatsFormat::kOff) return;
  emit_json(out(), p);
  out().flush();
}

}  // namespace pto::telemetry
