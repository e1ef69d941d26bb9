// Structured bench emission: per-measurement-point records with the full
// telemetry schema (throughput, abort counts by cause, fallback fraction,
// fence elisions, transactional cycle share) instead of a bare mean.
//
//   PTO_STATS=json   one JSON object per line ("bench_point" records)
//   PTO_STATS=csv    one CSV row per point (header emitted once)
//
// With PTO_STATS unset nothing is emitted and bench output stays byte-
// identical to a telemetry-free build. Records go to stdout by default;
// tests can redirect with set_stats_stream().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/prefix.h"
#include "obs/obs.h"
#include "obs/perf_counters.h"
#include "sim/sim.h"

namespace pto::telemetry {

enum class StatsFormat { kOff, kJson, kCsv };

/// Emitted as `schema_version` in every record. History:
///   1  (implicit, PR 1): throughput + abort buckets + prefix counters
///   2  (PR 6): explicit schema_version, per-cause prefix abort buckets,
///      native latency percentiles (lat/lat_fast/lat_fallback blocks), and
///      optional hardware perf counter fields.
inline constexpr unsigned kStatsSchemaVersion = 2;

/// Active format. Initialized once from PTO_STATS; overridable for tests.
StatsFormat stats_format();

/// Override the format. Selecting kJson/kCsv also enables telemetry
/// recording (set_enabled(true)) so fallback fractions are populated.
void set_stats_format(StatsFormat f);

/// Redirect emission (tests); nullptr restores stdout.
void set_stats_stream(std::ostream* os);

/// One measured bench point, summed over its trials.
struct BenchPoint {
  std::string bench;   ///< e.g. "fig3a"
  std::string series;  ///< e.g. "Tree(PTO)"
  unsigned threads = 0;
  unsigned trials = 0;
  double ops_per_ms = 0.0;
  std::uint64_t makespan = 0;    ///< virtual cycles, summed over trials
  std::uint64_t cpu_cycles = 0;  ///< sum of final per-thread clocks
  sim::ThreadStats sim;          ///< simulator totals, summed over trials
  PrefixStats prefix;            ///< telemetry-registry delta for the point
  // Native observability (pto::obs); all-zero / invalid on simulated points
  // and when PTO_OBS / PTO_PERF are off — the fields still emit (as zeros or
  // empty CSV cells) so the v2 schema is stable across configurations.
  obs::HistSummary lat;           ///< op latency, ns, all paths merged
  obs::HistSummary lat_fast;      ///< ops served entirely by the fast path
  obs::HistSummary lat_fallback;  ///< ops that took at least one fallback
  std::vector<obs::LatencySiteSummary> lat_sites;  ///< JSON-only detail
  obs::PerfSample perf;           ///< hardware counters (PTO_PERF=1)
  // Run provenance; left empty they are filled from common/buildinfo.h at
  // emission so every record names the commit/build/backend that produced it.
  std::string git_sha;
  std::string build_type;
  std::string fiber_backend;
  // Wall-clock provenance (additive to schema v2; older readers ignore the
  // extra fields/columns). Runners stamp ts_start when the point begins;
  // empty timestamps/hostname fill with now()/gethostname() at emission.
  std::string ts_start;  ///< ISO-8601 UTC, point start
  std::string ts_end;    ///< ISO-8601 UTC, emission time
  std::string hostname;
  /// metrics_interval records pto::metrics emitted within this point
  /// (0 when PTO_METRICS is off).
  std::uint64_t intervals = 0;
};

/// Emit `p` in the active format; no-op when stats_format() == kOff.
void emit_bench_point(const BenchPoint& p);

/// UTC wall clock as ISO-8601 with millisecond precision
/// ("2026-08-07T12:34:56.789Z"); the BenchPoint / pto::metrics timestamp.
std::string iso8601_now();

/// Cached gethostname(); "unknown" when unavailable.
const std::string& host_name();

/// The one JSON writer behind bench points, profiler reports and metrics
/// records: append `v` as a string literal (quote, backslash and control
/// characters escaped) or as a number (printf "%.6g"). Appending to a
/// std::string keeps metrics ticks cheap on small fiber stacks; the stream
/// forms write the same bytes.
void json_str(std::string& o, std::string_view v);
void json_num(std::string& o, double v);
void json_str(std::ostream& os, std::string_view v);
void json_num(std::ostream& os, double v);

}  // namespace pto::telemetry
