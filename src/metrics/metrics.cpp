#include "metrics/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/buildinfo.h"
#include "common/env.h"
#include "common/gauges.h"
#include "common/warn.h"
#include "obs/obs.h"
#include "obs/tsc.h"
#include "telemetry/emit.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"

namespace pto::metrics {

namespace detail {
std::uint64_t g_sim_next_tick = ~std::uint64_t{0};
}  // namespace detail

namespace {

namespace prof = ::pto::telemetry::prof;
using telemetry::json_num;
using telemetry::json_str;

/// Rate-style watchdog rules need a few events before a ratio is meaningful;
/// below this many interval events they stay quiet (a 1-op interval with one
/// fallback is not a storm).
constexpr std::uint64_t kWatchMinEvents = 16;

enum class RuleKind { kFallbackRate, kAbortStorm, kReclaimBacklog };

struct Rule {
  RuleKind kind;
  double threshold;
  bool announced = false;  ///< stderr notice printed (first firing only)
};

const char* rule_name(RuleKind k) {
  switch (k) {
    case RuleKind::kFallbackRate: return "fallback_rate";
    case RuleKind::kAbortStorm: return "abort_storm";
    case RuleKind::kReclaimBacklog: return "reclaim_backlog";
  }
  return "?";
}

struct State {
  std::mutex mu;  ///< guards everything below plus emission
  Config cfg;
  std::atomic<bool> armed{false};
  bool out_failed = false;   ///< the NDJSON stream could not be opened
  bool prom_failed = false;  ///< a Prometheus file write failed (warned)
  std::FILE* out = nullptr;  ///< owned unless == stderr
  std::ostream* test_os = nullptr;
  std::uint64_t seq = 0;
  std::atomic<std::uint64_t> intervals{0};
  std::atomic<unsigned> violations{0};
  std::string bench, series;
  unsigned threads = 0;
  bool point_wall = false;            ///< the open point is wall-clock
  std::uint64_t point_intervals = 0;  ///< `intervals` when it opened
  std::vector<Rule> rules;

  // Baselines: cumulative snapshots as of the previous tick. Interval
  // deltas telescope because every source is monotone with storage that
  // survives thread exit; a shrink (explicit reset between points) makes
  // the next delta restart from the post-reset counts.
  telemetry::Snapshot base;
  prof::LedgerTotals prof_base;

  // Wall-clock (native) mode.
  std::chrono::steady_clock::time_point arm_time;
  double last_wall_ms = 0.0;
  bool sampling = false;
  std::thread sampler;
  std::mutex cv_mu;
  std::condition_variable cv;
  bool stop_sampler = false;

  // Virtual-time (simx) mode.
  std::uint64_t tick_cycles = 0;
  std::uint64_t sim_run_id = 0;
  std::uint64_t sim_last_vt = 0;
  bool sim_active = false;
};

// Leaked: records can be emitted from atexit handlers.
State& st() {
  static State* s = new State();
  return *s;
}

// --------------------------------------------------------------------------
// Minimal JSON building into a std::string (one record per call, no
// intermediate ostringstream — ticks can run on small fiber stacks); strings
// and doubles go through telemetry::json_str / json_num.
// --------------------------------------------------------------------------

void j_u64(std::string& o, std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%llu", static_cast<unsigned long long>(v));
  o += b;
}

void j_i64(std::string& o, std::int64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%lld", static_cast<long long>(v));
  o += b;
}

// --------------------------------------------------------------------------
// Output plumbing. mu held by callers.
// --------------------------------------------------------------------------

void out_write(State& s, const std::string& rec) {
  if (s.test_os != nullptr) {
    (*s.test_os) << rec;
    s.test_os->flush();
    return;
  }
  if (s.out == nullptr && !s.out_failed) {
    const std::string& p = s.cfg.out_path;
    const char* path = p.empty() ? "pto_metrics.ndjson" : p.c_str();
    if (std::strcmp(path, "-") == 0) {
      s.out = stderr;
    } else {
      s.out = std::fopen(path, "wb");
      if (s.out == nullptr) {
        // Plain fprintf, not warn_once: the warn sink would re-enter mu.
        s.out_failed = true;
        std::fprintf(stderr,
                     "[pto] warning: cannot open PTO_METRICS_OUT=%s; metrics "
                     "stream disabled\n",
                     path);
      }
    }
  }
  if (s.out != nullptr) {
    std::fwrite(rec.data(), 1, rec.size(), s.out);
    // Flush per record so `pto_top.py -f` and crash post-mortems see the
    // stream tail; ticks are >= 1 ms apart, so the syscall is off any hot
    // path.
    std::fflush(s.out);
  }
}

/// Prometheus label value escaping (backslash, quote, newline).
void prom_label(std::string& o, const std::string& v) {
  for (char c : v) {
    if (c == '\\' || c == '"') o += '\\';
    if (c == '\n') {
      o += "\\n";
      continue;
    }
    o += c;
  }
}

void write_prom(State& s) {
  if (s.cfg.prom_path.empty()) return;
  std::string o;
  o.reserve(2048);
  const std::vector<telemetry::Site*>& sites = s.base.sites;
  const std::vector<PrefixStats>& counts = s.base.counts;
  struct Family {
    const char* name;
    std::uint64_t PrefixStats::* field;
  };
  const Family families[] = {
      {"pto_prefix_attempts_total", &PrefixStats::attempts},
      {"pto_prefix_commits_total", &PrefixStats::commits},
      {"pto_prefix_fallbacks_total", &PrefixStats::fallbacks},
  };
  for (const Family& f : families) {
    o += "# TYPE ";
    o += f.name;
    o += " counter\n";
    for (std::size_t i = 0; i < sites.size(); ++i) {
      o += f.name;
      o += "{site=\"";
      prom_label(o, sites[i]->name());
      o += "\"} ";
      j_u64(o, counts[i].*(f.field));
      o += '\n';
    }
  }
  o += "# TYPE pto_prefix_aborts_total counter\n";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (unsigned c = 1; c < kTxCodeCount; ++c) {
      if (counts[i].aborts[c] == 0) continue;
      o += "pto_prefix_aborts_total{site=\"";
      prom_label(o, sites[i]->name());
      o += "\",cause=\"";
      o += tx_code_name(c);
      o += "\"} ";
      j_u64(o, counts[i].aborts[c]);
      o += '\n';
    }
  }
  o += "# TYPE pto_reclaim_backlog gauge\npto_reclaim_backlog ";
  j_i64(o, gauges::reclaim_backlog().load(std::memory_order_relaxed));
  o += "\n# TYPE pto_watch_violations_total counter\n"
       "pto_watch_violations_total ";
  j_u64(o, s.violations.load(std::memory_order_relaxed));
  o += "\n# TYPE pto_metrics_intervals_total counter\n"
       "pto_metrics_intervals_total ";
  j_u64(o, s.intervals.load(std::memory_order_relaxed));
  o += '\n';
  if (s.base.latency != nullptr) {
    o += "# TYPE pto_op_samples_total counter\npto_op_samples_total ";
    j_u64(o, s.base.latency->total());
    o += '\n';
  }
  // Atomic replace so a concurrent scraper never reads a torn file.
  const std::string tmp = s.cfg.prom_path + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
    std::fwrite(o.data(), 1, o.size(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), s.cfg.prom_path.c_str());
  } else if (!s.prom_failed) {
    s.prom_failed = true;
    std::fprintf(stderr, "[pto] warning: cannot write PTO_METRICS_PROM=%s\n",
                 s.cfg.prom_path.c_str());
  }
}

// --------------------------------------------------------------------------
// Delta collection.
// --------------------------------------------------------------------------

std::uint64_t sub_or_rebase(std::uint64_t cur, std::uint64_t base) {
  // Monotone counter: a shrink means the source was reset, so the events
  // since the reset are simply `cur` — never lose events, never underflow.
  return cur >= base ? cur - base : cur;
}

struct Delta {
  PrefixStats prefix;
  std::vector<std::pair<std::string, PrefixStats>> sites;  ///< nonzero only
  bool has_obs = false;
  obs::HistSummary obs_all;  ///< interval delta, ns (max is cumulative)
  bool has_prof = false;
  prof::LedgerTotals prof;
  std::int64_t reclaim = 0;
};

Delta collect(State& s, bool wall_mode) {
  Delta d;
  telemetry::Snapshot cur = telemetry::Registry::instance().snapshot(
      wall_mode && obs::hist_on());
  for (std::size_t i = 0; i < cur.sites.size(); ++i) {
    const PrefixStats sd = cur.counts[i].zip(
        i < s.base.counts.size() ? s.base.counts[i] : PrefixStats{},
        sub_or_rebase);
    d.prefix.accumulate(sd);
    if (sd.attempts != 0 || sd.commits != 0 || sd.fallbacks != 0 ||
        sd.total_aborts() != 0) {
      d.sites.emplace_back(cur.sites[i]->name(), sd);
    }
  }
  if (cur.latency != nullptr) {
    obs::Histogram delta = *cur.latency;
    if (s.base.latency != nullptr &&
        cur.latency->total() >= s.base.latency->total()) {
      delta.subtract_clamped(*s.base.latency);
    }
    d.has_obs = true;
    d.obs_all = obs::to_ns(delta);
  } else {
    cur.latency = std::move(s.base.latency);  // keep the last wall baseline
  }
  s.base = std::move(cur);
  if (!wall_mode && prof::on()) {
    const prof::LedgerTotals cur = prof::ledger_totals();
    prof::LedgerTotals pd;
    for (unsigned c = 0; c < prof::kClassCount; ++c) {
      pd.classed[c] = sub_or_rebase(cur.classed[c], s.prof_base.classed[c]);
    }
    pd.fast_spans = sub_or_rebase(cur.fast_spans, s.prof_base.fast_spans);
    pd.fallback_spans =
        sub_or_rebase(cur.fallback_spans, s.prof_base.fallback_spans);
    pd.retry_waste_cycles = sub_or_rebase(cur.retry_waste_cycles,
                                          s.prof_base.retry_waste_cycles);
    s.prof_base = cur;
    d.has_prof = true;
    d.prof = pd;
  }
  d.reclaim = gauges::reclaim_backlog().load(std::memory_order_relaxed);
  return d;
}

// --------------------------------------------------------------------------
// Record emission. mu held.
// --------------------------------------------------------------------------

void emit_watch(State& s, const Rule& r, double value, bool wall_mode) {
  std::string o;
  o.reserve(192);
  o += "{\"type\":\"watch\",\"schema\":1,\"seq\":";
  j_u64(o, ++s.seq);
  o += ",\"rule\":\"";
  o += rule_name(r.kind);
  o += "\",\"value\":";
  json_num(o, value);
  o += ",\"threshold\":";
  json_num(o, r.threshold);
  o += ",\"mode\":";
  o += wall_mode ? "\"wall\"" : "\"sim\"";
  if (!s.bench.empty()) {
    o += ",\"bench\":";
    json_str(o, s.bench);
    o += ",\"series\":";
    json_str(o, s.series);
  }
  o += "}\n";
  out_write(s, o);
}

void eval_watch(State& s, const Delta& d, bool wall_mode) {
  for (Rule& r : s.rules) {
    double value = 0.0;
    bool fired = false;
    switch (r.kind) {
      case RuleKind::kFallbackRate: {
        const std::uint64_t done = d.prefix.commits + d.prefix.fallbacks;
        if (done >= kWatchMinEvents) {
          value = static_cast<double>(d.prefix.fallbacks) /
                  static_cast<double>(done);
          fired = value > r.threshold;
        }
        break;
      }
      case RuleKind::kAbortStorm: {
        const std::uint64_t aborts = d.prefix.total_aborts();
        if (aborts >= kWatchMinEvents) {
          value = static_cast<double>(aborts) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, d.prefix.commits));
          fired = value > r.threshold;
        }
        break;
      }
      case RuleKind::kReclaimBacklog: {
        value = static_cast<double>(d.reclaim);
        fired = value > r.threshold;
        break;
      }
    }
    if (!fired) continue;
    s.violations.fetch_add(1, std::memory_order_relaxed);
    emit_watch(s, r, value, wall_mode);
    if (!r.announced) {
      r.announced = true;
      std::fprintf(stderr,
                   "[pto] watch: %s fired (value %.4g, threshold %.4g)\n",
                   rule_name(r.kind), value, r.threshold);
    }
  }
}

void emit_interval(State& s, bool wall_mode, double t0_ms, double t1_ms,
                   std::uint64_t vt0, std::uint64_t vt1) {
  const Delta d = collect(s, wall_mode);
  std::string o;
  o.reserve(1024);
  o += "{\"type\":\"metrics_interval\",\"schema\":1,\"seq\":";
  j_u64(o, ++s.seq);
  o += ",\"mode\":";
  if (wall_mode) {
    o += "\"wall\",\"t0_ms\":";
    json_num(o, t0_ms);
    o += ",\"t1_ms\":";
    json_num(o, t1_ms);
  } else {
    o += "\"sim\",\"run\":";
    j_u64(o, s.sim_run_id);
    o += ",\"vt0\":";
    j_u64(o, vt0);
    o += ",\"vt1\":";
    j_u64(o, vt1);
  }
  o += ",\"bench\":";
  json_str(o, s.bench);
  o += ",\"series\":";
  json_str(o, s.series);
  o += ",\"threads\":";
  j_u64(o, s.threads);
  o += ",\"prefix\":{\"attempts\":";
  j_u64(o, d.prefix.attempts);
  o += ",\"commits\":";
  j_u64(o, d.prefix.commits);
  o += ",\"fallbacks\":";
  j_u64(o, d.prefix.fallbacks);
  o += ",\"aborts\":{";
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    if (c != 1) o += ',';
    o += '"';
    o += tx_code_name(c);
    o += "\":";
    j_u64(o, d.prefix.aborts[c]);
  }
  o += "},\"aborts_total\":";
  j_u64(o, d.prefix.total_aborts());
  o += "},\"fallback_rate\":";
  const std::uint64_t done = d.prefix.commits + d.prefix.fallbacks;
  json_num(o, done == 0 ? 0.0
                        : static_cast<double>(d.prefix.fallbacks) /
                              static_cast<double>(done));
  o += ",\"sites\":[";
  for (std::size_t i = 0; i < d.sites.size(); ++i) {
    if (i != 0) o += ',';
    o += "{\"site\":";
    json_str(o, d.sites[i].first);
    o += ",\"attempts\":";
    j_u64(o, d.sites[i].second.attempts);
    o += ",\"commits\":";
    j_u64(o, d.sites[i].second.commits);
    o += ",\"fallbacks\":";
    j_u64(o, d.sites[i].second.fallbacks);
    o += ",\"aborts_total\":";
    j_u64(o, d.sites[i].second.total_aborts());
    o += '}';
  }
  o += ']';
  if (d.has_obs) {
    o += ",\"obs\":{\"samples\":";
    j_u64(o, d.obs_all.samples);
    o += ",\"p50_ns\":";
    j_u64(o, d.obs_all.p50);
    o += ",\"p90_ns\":";
    j_u64(o, d.obs_all.p90);
    o += ",\"p99_ns\":";
    j_u64(o, d.obs_all.p99);
    o += ",\"p999_ns\":";
    j_u64(o, d.obs_all.p999);
    o += ",\"max_ns\":";
    j_u64(o, d.obs_all.max);
    o += '}';
  }
  if (d.has_prof) {
    o += ",\"prof\":{\"cycles\":{";
    for (unsigned c = 0; c < prof::kClassCount; ++c) {
      if (c != 0) o += ',';
      o += '"';
      o += prof::cycle_class_name(c);
      o += "\":";
      j_u64(o, d.prof.classed[c]);
    }
    o += "},\"fast_spans\":";
    j_u64(o, d.prof.fast_spans);
    o += ",\"fallback_spans\":";
    j_u64(o, d.prof.fallback_spans);
    o += ",\"retry_waste_cycles\":";
    j_u64(o, d.prof.retry_waste_cycles);
    o += '}';
  }
  o += ",\"reclaim_backlog\":";
  j_i64(o, d.reclaim);
  o += "}\n";
  out_write(s, o);
  s.intervals.fetch_add(1, std::memory_order_relaxed);
  eval_watch(s, d, wall_mode);
  write_prom(s);
}

void emit_meta(State& s) {
  std::string o;
  o.reserve(256);
  o += "{\"type\":\"metrics_meta\",\"schema\":1,\"interval_ms\":";
  j_u64(o, s.cfg.interval_ms);
  o += ",\"git_sha\":";
  json_str(o, build_git_sha());
  o += ",\"build_type\":";
  json_str(o, build_type());
  o += ",\"hostname\":";
  json_str(o, telemetry::host_name());
  o += ",\"started\":";
  json_str(o, telemetry::iso8601_now());
  o += "}\n";
  out_write(s, o);
}

void tick_wall(State& s) {
  const double now_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - s.arm_time)
          .count();
  emit_interval(s, /*wall_mode=*/true, s.last_wall_ms, now_ms, 0, 0);
  s.last_wall_ms = now_ms;
}

void sampler_main() {
  State& s = st();
  std::unique_lock<std::mutex> lk(s.cv_mu);
  const auto period = std::chrono::milliseconds(s.cfg.interval_ms);
  for (;;) {
    if (s.cv.wait_for(lk, period, [&s] { return s.stop_sampler; })) return;
    lk.unlock();
    {
      std::lock_guard<std::mutex> mlk(s.mu);
      tick_wall(s);
    }
    lk.lock();
  }
}

/// Stop and join the sampler thread if running. mu must NOT be held.
void stop_sampler(State& s) {
  if (!s.sampling) return;
  {
    std::lock_guard<std::mutex> lk(s.cv_mu);
    s.stop_sampler = true;
  }
  s.cv.notify_all();
  s.sampler.join();
  s.sampling = false;
}

void metrics_warn_sink(const char* key, const char* msg) {
  State& s = st();
  if (!s.armed.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lk(s.mu);
  std::string o;
  o.reserve(192);
  o += "{\"type\":\"warning\",\"schema\":1,\"seq\":";
  j_u64(o, ++s.seq);
  o += ",\"key\":";
  json_str(o, key);
  o += ",\"msg\":";
  json_str(o, msg);
  o += "}\n";
  out_write(s, o);
}

// --------------------------------------------------------------------------
// Environment parsing and process-exit hook.
// --------------------------------------------------------------------------

std::vector<Rule> parse_watch(const std::string& spec) {
  std::vector<Rule> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    std::string name = tok;
    double thr = 0.0;
    bool has_thr = false;
    if (const std::size_t gt = tok.find('>'); gt != std::string::npos) {
      name = tok.substr(0, gt);
      char* end = nullptr;
      thr = std::strtod(tok.c_str() + gt + 1, &end);
      if (end == tok.c_str() + gt + 1 || *end != '\0') {
        warn_once("env.PTO_WATCH",
                  "ignoring PTO_WATCH rule '%s' with unparsable threshold",
                  tok.c_str());
        continue;
      }
      has_thr = true;
    }
    if (name == "fallback_rate") {
      out.push_back({RuleKind::kFallbackRate, has_thr ? thr : 0.5});
    } else if (name == "abort_storm") {
      out.push_back({RuleKind::kAbortStorm, has_thr ? thr : 4.0});
    } else if (name == "reclaim_backlog") {
      out.push_back({RuleKind::kReclaimBacklog, has_thr ? thr : 100000.0});
    } else {
      warn_once("env.PTO_WATCH",
                "ignoring unknown PTO_WATCH rule '%s' (want fallback_rate | "
                "abort_storm | reclaim_backlog, each with optional >thresh)",
                tok.c_str());
    }
  }
  return out;
}

void at_exit_flush() {
  State& s = st();
  stop_sampler(s);
  flush();
  if (s.cfg.strict && s.violations.load(std::memory_order_relaxed) > 0) {
    std::fprintf(stderr,
                 "[pto] metrics: %u watchdog violation(s) with "
                 "PTO_WATCH_STRICT=1; failing the process\n",
                 s.violations.load(std::memory_order_relaxed));
    std::_Exit(9);
  }
}

/// Scan the environment at static init so PTO_METRICS works with no code
/// changes in the armed binary, and register the exit flush *early* so it
/// runs after (atexit is LIFO) the other observability exit dumps.
const bool g_env_armed = [] {
  Config c;
  c.interval_ms = env::u64("PTO_METRICS", 0);
  if (const char* v = env::str("PTO_METRICS_OUT")) c.out_path = v;
  if (const char* v = env::str("PTO_METRICS_PROM")) c.prom_path = v;
  if (const char* v = env::str("PTO_WATCH")) c.watch = v;
  c.strict = env::flag("PTO_WATCH_STRICT");
  if (!c.watch.empty() && c.interval_ms == 0) {
    warn_once("env.PTO_WATCH",
              "PTO_WATCH set without PTO_METRICS=<ms>; watchdog rules "
              "evaluate on interval snapshots and stay dormant");
  }
  if (c.interval_ms == 0) return false;
  configure(c);
  std::atexit(at_exit_flush);
  return true;
}();

}  // namespace

bool armed() { return st().armed.load(std::memory_order_relaxed); }

void configure(const Config& cfg) {
  State& s = st();
  stop_sampler(s);
  // Warnings from here on (parse_watch's among them) queue for the new
  // stream: the sink takes mu, so it is set only once mu is released.
  set_warn_sink(nullptr);
  std::vector<Rule> rules = parse_watch(cfg.watch);
  std::unique_lock<std::mutex> lk(s.mu);
  if (s.out != nullptr && s.out != stderr) std::fclose(s.out);
  s.out = nullptr;
  s.out_failed = false;
  s.prom_failed = false;
  s.cfg = cfg;
  s.seq = 0;
  s.intervals.store(0, std::memory_order_relaxed);
  s.violations.store(0, std::memory_order_relaxed);
  s.bench.clear();
  s.series.clear();
  s.threads = 0;
  s.point_wall = false;
  s.point_intervals = 0;
  s.rules = std::move(rules);
  s.base = telemetry::Snapshot{};
  s.prof_base = prof::LedgerTotals{};
  s.arm_time = std::chrono::steady_clock::now();
  s.last_wall_ms = 0.0;
  s.stop_sampler = false;
  s.tick_cycles = cfg.interval_ms * kCyclesPerVirtualMs;
  s.sim_run_id = 0;
  s.sim_last_vt = 0;
  s.sim_active = false;
  detail::g_sim_next_tick = ~std::uint64_t{0};
  const bool on = cfg.interval_ms > 0;
  s.armed.store(on, std::memory_order_relaxed);
  if (on) {
    // The interval deltas are fed by the telemetry registry; arming metrics
    // without it would stream all-zero counters, so switch it on the same
    // way PTO_STATS/PTO_TELEMETRY_REPORT would.
    telemetry::set_enabled(true);
    // Baseline every source at arm so the first interval covers
    // [arm, first tick) only, whichever mode runs first.
    s.base = telemetry::Registry::instance().snapshot(obs::hist_on());
    if (prof::on()) s.prof_base = prof::ledger_totals();
    emit_meta(s);
    lk.unlock();
    set_warn_sink(&metrics_warn_sink);  // forwards the queued warnings
  }
}

void set_stream(std::ostream* os) {
  State& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.test_os = os;
}

std::uint64_t intervals_emitted() {
  return st().intervals.load(std::memory_order_relaxed);
}

unsigned watch_violations() {
  return st().violations.load(std::memory_order_relaxed);
}

void point_begin(const char* bench, const char* series, unsigned threads,
                 bool wall_clock) {
  State& s = st();
  if (!armed()) return;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.bench = bench;
    s.series = series;
    s.threads = threads;
    s.point_wall = wall_clock;
    s.point_intervals = s.intervals.load(std::memory_order_relaxed);
    if (!wall_clock) return;
    // The bracket resets latency just before a wall-clock point; re-baseline
    // so this point's interval deltas start from zero samples.
    s.base.latency =
        telemetry::Registry::instance().snapshot(obs::hist_on()).latency;
  }
  if (s.sampling) return;
  {
    std::lock_guard<std::mutex> lk(s.cv_mu);
    s.stop_sampler = false;
  }
  s.sampling = true;
  s.sampler = std::thread(sampler_main);
}

std::uint64_t point_end() {
  State& s = st();
  if (!armed()) return 0;
  stop_sampler(s);
  std::lock_guard<std::mutex> lk(s.mu);
  // Trailing partial interval: a wall-clock point's deltas telescope to its
  // end-of-run aggregate (the invariant tests and BenchPoint::intervals
  // both rely on the point being closed out here).
  if (s.point_wall) tick_wall(s);
  return s.intervals.load(std::memory_order_relaxed) - s.point_intervals;
}

void force_tick() {
  State& s = st();
  if (!armed()) return;
  std::lock_guard<std::mutex> lk(s.mu);
  tick_wall(s);
}

void flush() {
  State& s = st();
  if (!armed()) return;
  std::lock_guard<std::mutex> lk(s.mu);
  std::string o;
  o.reserve(192);
  o += "{\"type\":\"metrics_flush\",\"schema\":1,\"seq\":";
  j_u64(o, ++s.seq);
  o += ",\"intervals\":";
  j_u64(o, s.intervals.load(std::memory_order_relaxed));
  o += ",\"violations\":";
  j_u64(o, s.violations.load(std::memory_order_relaxed));
  o += ",\"ended\":";
  json_str(o, telemetry::iso8601_now());
  o += "}\n";
  out_write(s, o);
  write_prom(s);
}

void sim_run_begin(unsigned nthreads) {
  State& s = st();
  if (!armed()) return;
  std::lock_guard<std::mutex> lk(s.mu);
  ++s.sim_run_id;
  s.sim_last_vt = 0;
  s.sim_active = true;
  // Outside a labeled bench point the thread count is still worth having.
  if (s.bench.empty()) s.threads = nthreads;
  detail::g_sim_next_tick = s.tick_cycles;
}

void sim_run_end(std::uint64_t final_vt) {
  State& s = st();
  if (!armed()) return;
  std::lock_guard<std::mutex> lk(s.mu);
  detail::g_sim_next_tick = ~std::uint64_t{0};
  if (!s.sim_active) return;
  s.sim_active = false;
  // Trailing partial interval closes the run, so per-run interval deltas
  // telescope to the run's aggregate even when the run is shorter than one
  // virtual interval.
  emit_interval(s, /*wall_mode=*/false, 0, 0, s.sim_last_vt, final_vt);
}

namespace detail {

void sim_tick(std::uint64_t vnow) {
  State& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.sim_active || s.tick_cycles == 0) return;
  // One record per crossing, covering every boundary a large charge may
  // have jumped over: [last, floor(vnow / tick) * tick].
  const std::uint64_t boundary = vnow / s.tick_cycles * s.tick_cycles;
  if (boundary <= s.sim_last_vt) {
    g_sim_next_tick = s.sim_last_vt + s.tick_cycles;
    return;
  }
  emit_interval(s, /*wall_mode=*/false, 0, 0, s.sim_last_vt, boundary);
  s.sim_last_vt = boundary;
  g_sim_next_tick = boundary + s.tick_cycles;
}

}  // namespace detail

}  // namespace pto::metrics
