#include "telemetry/prof.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/defs.h"
#include "common/env.h"
#include "common/warn.h"
#include "sim/sim.h"
#include "telemetry/emit.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"
#include "telemetry/trace.h"

namespace pto::telemetry::prof {

namespace {

const char* kClassNames[kClassCount] = {
    "load",  "store",       "sync",  "fence", "alloc",
    "tx_overhead", "pause", "bench", "other"};

/// Per-virtual-thread profiling state beside the thread's span stack
/// (telemetry/span.h). The simulator multiplexes all virtual threads onto
/// one host thread, so no synchronization is needed.
struct ThreadProf {
  /// Identity of the thread's live transaction for conflict attribution:
  /// the attempt span that was on top at the outermost tx_begin (the span
  /// whose site will record the CONFLICT abort after the longjmp).
  const Site* tx_site = nullptr;
  /// Non-zero while inside do_alloc/do_dealloc: nested charges (the shared
  /// refill RMW) class as allocation traffic.
  unsigned alloc_depth = 0;
};

struct LedgerData {
  SpanProfile fast;
  SpanProfile fallback;
  std::uint64_t fence_elided_count = 0;
  std::uint64_t fence_elided_cycles = 0;
  std::uint64_t cas_collapsed_cycles = 0;
  std::uint64_t retry_waste_cycles = 0;
  std::uint64_t aborts[kTxCodeCount] = {};
};

struct MatrixEntry {
  const Site* victim;
  const Site* aggressor;
  std::uint64_t count = 0;
  std::uint64_t doomed_cycles = 0;
};

struct LineData {
  std::uint64_t ordinal = 0;  ///< order of first conflict (HotLine::line)
  std::uint64_t aborts = 0;
  std::uint64_t doomed_cycles = 0;
  /// Victim-site histogram; small, linear scan (first touch keeps order).
  std::vector<std::pair<const Site*, std::uint64_t>> victims;
};

struct ScopeData {
  std::string label;
  /// First-touch order; site count is small, linear find.
  std::vector<std::pair<const Site*, LedgerData>> sites;
  std::vector<MatrixEntry> matrix;
  std::map<std::uint64_t, LineData> lines;  ///< keyed by address / kCacheLine
  std::uint64_t unattributed[kClassCount] = {};

  explicit ScopeData(std::string l) : label(std::move(l)) {}

  LedgerData& ledger(const Site* s) {
    for (auto& e : sites) {
      if (e.first == s) return e.second;
    }
    sites.emplace_back(s, LedgerData{});
    return sites.back().second;
  }
};

struct ProfState {
  std::vector<std::unique_ptr<ScopeData>> scopes;
  ScopeData* cur = nullptr;
  /// Per-virtual-thread profiles, grown by thread_prof().
  std::vector<ThreadProf> threads;
  /// Cumulative process-wide counters feeding the perfetto counter tracks.
  std::uint64_t conflicts_total = 0;
  std::uint64_t doomed_total = 0;

  std::string out_path;  ///< empty = stderr
  bool report_at_exit = false;

  ProfState() {
    scopes.push_back(std::make_unique<ScopeData>(""));
    cur = scopes.front().get();
    if (env::str("PTO_PROF") != nullptr) {
      // "json" is the one report; any other value warns and writes it too.
      env::choice("PTO_PROF", {"json"}, 0);
      set_tap(kTapProf, true);
      report_at_exit = true;
    }
    if (const char* v = env::str("PTO_PROF_OUT")) out_path = v;
  }
};

ProfState& state() {
  static ProfState s;
  return s;
}

// Force the env scan at startup (hooks are gated on the prof tap, which the
// ProfState constructor arms from PTO_PROF) and register the end-of-run
// report.
const bool g_env_scanned = [] {
  if (state().report_at_exit) {
    std::atexit([] { report_if_enabled(); });
  }
  return true;
}();

/// Grow the per-thread profile vector to cover `tid` (sim::run keeps ids
/// below kMaxThreads); growth invalidates earlier references.
ThreadProf& thread_prof(ProfState& ps, unsigned tid) {
  if (PTO_UNLIKELY(tid >= ps.threads.size())) ps.threads.resize(tid + 1);
  return ps.threads[tid];
}

ThreadProf& me() { return thread_prof(state(), sim::thread_id()); }

void fold(SpanProfile& p, const Span& s) {
  ++p.count;
  for (unsigned c = 0; c < kClassCount; ++c) p.classed[c] += s.classed[c];
}

// ---------------------------------------------------------------------------
// Reporting helpers.
// ---------------------------------------------------------------------------

void json_classes(std::ostream& os, const std::uint64_t (&cl)[kClassCount]) {
  os << '{';
  for (unsigned c = 0; c < kClassCount; ++c) {
    os << (c == 0 ? "\"" : ",\"") << kClassNames[c] << "\":" << cl[c];
  }
  os << '}';
}

void report_json(std::ostream& os, const std::vector<ScopeSnapshot>& scopes) {
  os << "{\"type\":\"pto_prof\",\"scopes\":[";
  bool first_scope = true;
  for (const auto& sc : scopes) {
    os << (first_scope ? "" : ",") << "{\"label\":";
    first_scope = false;
    json_str(os, sc.label);
    os << ",\"sites\":[";
    for (std::size_t i = 0; i < sc.sites.size(); ++i) {
      const SiteLedger& l = sc.sites[i];
      os << (i == 0 ? "" : ",") << "{\"site\":";
      json_str(os, l.site);
      os << ",\"fast_count\":" << l.fast.count << ",\"fast_classes\":";
      json_classes(os, l.fast.classed);
      os << ",\"fallback_count\":" << l.fallback.count
         << ",\"fallback_classes\":";
      json_classes(os, l.fallback.classed);
      os << ",\"fence_elided_count\":" << l.fence_elided_count
         << ",\"fence_elided_cycles\":" << l.fence_elided_cycles
         << ",\"cas_collapsed_cycles\":" << l.cas_collapsed_cycles
         << ",\"retry_waste_cycles\":" << l.retry_waste_cycles
         << ",\"aborts\":{";
      for (unsigned c = 0; c < kTxCodeCount; ++c) {
        os << (c == 0 ? "\"" : ",\"") << tx_code_name(c) << "\":"
           << l.aborts[c];
      }
      SavingsBreakdown sv = derive_savings(l);
      os << "},\"savings\":{\"fence_removed\":";
      json_num(os, sv.fence_removed);
      os << ",\"second_read_collapsed\":";
      json_num(os, sv.second_read_collapsed);
      os << ",\"store_sync_removed\":";
      json_num(os, sv.store_sync_removed);
      os << ",\"alloc_avoided\":";
      json_num(os, sv.alloc_avoided);
      os << ",\"other_removed\":";
      json_num(os, sv.other_removed);
      os << ",\"tx_overhead\":";
      json_num(os, sv.tx_overhead);
      os << ",\"retry_waste\":";
      json_num(os, sv.retry_waste);
      os << ",\"explained\":";
      json_num(os, sv.explained());
      os << "}}";
    }
    os << "],\"matrix\":[";
    for (std::size_t i = 0; i < sc.matrix.size(); ++i) {
      const ConflictCell& c = sc.matrix[i];
      os << (i == 0 ? "" : ",") << "{\"victim\":";
      json_str(os, c.victim);
      os << ",\"aggressor\":";
      json_str(os, c.aggressor);
      os << ",\"count\":" << c.count
         << ",\"doomed_cycles\":" << c.doomed_cycles << "}";
    }
    os << "],\"hot_lines\":[";
    for (std::size_t i = 0; i < sc.hot_lines.size(); ++i) {
      const HotLine& h = sc.hot_lines[i];
      os << (i == 0 ? "" : ",") << "{\"line\":" << h.line << ",\"owner\":";
      json_str(os, h.owner);
      os << ",\"aborts\":" << h.aborts
         << ",\"doomed_cycles\":" << h.doomed_cycles << "}";
    }
    os << "],\"unattributed\":";
    json_classes(os, sc.unattributed);
    os << "}";
  }
  os << "]}\n";
}

}  // namespace

const char* cycle_class_name(unsigned cls) {
  return cls < kClassCount ? kClassNames[cls] : "?";
}

void set_enabled(bool on) {
  set_tap(kTapProf, on);
}

// ---------------------------------------------------------------------------
// Simulator-side hooks.
// ---------------------------------------------------------------------------

void on_charge(unsigned cls, std::uint64_t cycles) {
  ProfState& ps = state();
  if (me().alloc_depth > 0) cls = kClassAlloc;
  if (cls >= kClassCount) cls = kClassOther;
  if (Span* s = top_span(sim::thread_id())) {
    s->classed[cls] += cycles;
  } else {
    ps.cur->unattributed[cls] += cycles;
  }
}

void on_fence_elided(std::uint64_t cycles) {
  Span* s = top_span(sim::thread_id());
  if (s == nullptr) return;
  ++s->fence_elided_count;
  s->fence_elided_cycles += cycles;
}

void on_cas_collapsed(std::uint64_t saved) {
  if (Span* s = top_span(sim::thread_id())) s->cas_collapsed_cycles += saved;
}

void on_alloc_enter() { ++me().alloc_depth; }

void on_alloc_exit() {
  ThreadProf& tp = me();
  if (tp.alloc_depth > 0) --tp.alloc_depth;
}

void on_tx_begin() {
  const Span* s = top_span(sim::thread_id());
  me().tx_site = (s != nullptr && !s->fallback) ? s->site : nullptr;
}

void on_tx_commit() { me().tx_site = nullptr; }

void on_conflict(unsigned victim, unsigned aggressor, std::uintptr_t line,
                 std::uint64_t doomed_cycles) {
  ProfState& ps = state();
  ThreadProf& vp = thread_prof(ps, victim);
  const Site* vs = vp.tx_site;
  // The aggressor attributes from its innermost open span, attempt or
  // fallback — "fallback of X doomed the fast path of Y" is a real and
  // interesting cell.
  const Span* a = top_span(aggressor);
  const Site* as = a != nullptr ? a->site : nullptr;
  vp.tx_site = nullptr;  // the victim's transaction is dead

  MatrixEntry* cell = nullptr;
  for (auto& e : ps.cur->matrix) {
    if (e.victim == vs && e.aggressor == as) {
      cell = &e;
      break;
    }
  }
  if (cell == nullptr) {
    ps.cur->matrix.push_back(MatrixEntry{vs, as, 0, 0});
    cell = &ps.cur->matrix.back();
  }
  ++cell->count;
  cell->doomed_cycles += doomed_cycles;

  auto [it, fresh] = ps.cur->lines.try_emplace(line);
  LineData& ld = it->second;
  if (fresh) ld.ordinal = ps.cur->lines.size() - 1;
  ++ld.aborts;
  ld.doomed_cycles += doomed_cycles;
  bool found = false;
  for (auto& v : ld.victims) {
    if (v.first == vs) {
      ++v.second;
      found = true;
      break;
    }
  }
  if (!found) ld.victims.emplace_back(vs, 1);

  ++ps.conflicts_total;
  ps.doomed_total += doomed_cycles;
  if (PTO_UNLIKELY(trace_on())) {
    trace_counter(sim::now(), 0, ps.conflicts_total);
    trace_counter(sim::now(), 1, ps.doomed_total);
  }
}

void on_abort_unwind() {
  ThreadProf& tp = me();
  tp.alloc_depth = 0;
  tp.tx_site = nullptr;
}

void on_span_end(const Site* site, unsigned event, unsigned cause,
                 const Span* s) {
  if (s == nullptr) return;
  LedgerData& l = state().cur->ledger(site);
  if (event == kEventFallbackEnd) {
    fold(l.fallback, *s);
  } else if (event == kEventCommit) {
    fold(l.fast, *s);
    l.fence_elided_count += s->fence_elided_count;
    l.fence_elided_cycles += s->fence_elided_cycles;
    l.cas_collapsed_cycles += s->cas_collapsed_cycles;
  } else {  // kEventAbort
    ++l.aborts[cause < kTxCodeCount ? cause : TX_ABORT_OTHER];
    // Everything since the attempt opened was thrown away: accesses, the
    // tx_begin charge, and the abort penalty the doom added while the
    // victim was suspended. Classed cycles of the doomed work are
    // deliberately discarded — they never produced anything.
    l.retry_waste_cycles += sim::now() - s->start;
  }
}

// ---------------------------------------------------------------------------
// Control, snapshot, reporting.
// ---------------------------------------------------------------------------

void set_scope(std::string_view label) {
  ProfState& ps = state();
  for (auto& s : ps.scopes) {
    if (s->label == label) {
      ps.cur = s.get();
      return;
    }
  }
  ps.scopes.push_back(std::make_unique<ScopeData>(std::string(label)));
  ps.cur = ps.scopes.back().get();
}

void reset() {
  ProfState& ps = state();
  ps.scopes.clear();
  ps.scopes.push_back(std::make_unique<ScopeData>(""));
  ps.cur = ps.scopes.front().get();
  ps.threads.clear();
  ps.conflicts_total = 0;
  ps.doomed_total = 0;
}

SavingsBreakdown derive_savings(const SiteLedger& l) {
  SavingsBreakdown sv;
  sv.retry_waste = static_cast<double>(l.retry_waste_cycles);
  sv.tx_overhead = static_cast<double>(l.fast.classed[kClassTxOverhead]);
  if (l.fast.count == 0 || l.fallback.count == 0) {
    // Without a fallback population there is no baseline profile to diff
    // against; only the paid costs are known.
    return sv;
  }
  const double commits = static_cast<double>(l.fast.count);
  double d[kClassCount];
  for (unsigned c = 0; c < kClassCount; ++c) {
    d[c] = static_cast<double>(l.fallback.classed[c]) /
               static_cast<double>(l.fallback.count) -
           static_cast<double>(l.fast.classed[c]) /
               static_cast<double>(l.fast.count);
  }
  // TxOverhead is excluded from the diffs (the fallback never pays it); it is
  // reported as the absolute cost side instead.
  sv.fence_removed = d[kClassFence] * commits;
  sv.second_read_collapsed = d[kClassLoad] * commits;
  sv.store_sync_removed = (d[kClassStore] + d[kClassSync]) * commits;
  sv.alloc_avoided = d[kClassAlloc] * commits;
  sv.other_removed =
      (d[kClassPause] + d[kClassBench] + d[kClassOther]) * commits;
  return sv;
}

LedgerTotals ledger_totals() {
  ProfState& ps = state();
  LedgerTotals t;
  for (const auto& sc : ps.scopes) {
    for (unsigned c = 0; c < kClassCount; ++c) {
      t.classed[c] += sc->unattributed[c];
    }
    for (const auto& [site, l] : sc->sites) {
      (void)site;
      for (unsigned c = 0; c < kClassCount; ++c) {
        t.classed[c] += l.fast.classed[c] + l.fallback.classed[c];
      }
      t.fast_spans += l.fast.count;
      t.fallback_spans += l.fallback.count;
      t.retry_waste_cycles += l.retry_waste_cycles;
    }
  }
  return t;
}

std::vector<ScopeSnapshot> snapshot() {
  ProfState& ps = state();
  std::vector<ScopeSnapshot> out;
  out.reserve(ps.scopes.size());
  for (const auto& sc : ps.scopes) {
    ScopeSnapshot snap;
    snap.label = sc->label;
    for (const auto& [site, l] : sc->sites) {
      SiteLedger sl;
      sl.site = span_name(site);
      sl.fast = l.fast;
      sl.fallback = l.fallback;
      sl.fence_elided_count = l.fence_elided_count;
      sl.fence_elided_cycles = l.fence_elided_cycles;
      sl.cas_collapsed_cycles = l.cas_collapsed_cycles;
      sl.retry_waste_cycles = l.retry_waste_cycles;
      for (unsigned c = 0; c < kTxCodeCount; ++c) sl.aborts[c] = l.aborts[c];
      snap.sites.push_back(std::move(sl));
    }
    for (const auto& e : sc->matrix) {
      ConflictCell c;
      c.victim = span_name(e.victim);
      c.aggressor = span_name(e.aggressor);
      c.count = e.count;
      c.doomed_cycles = e.doomed_cycles;
      snap.matrix.push_back(std::move(c));
    }
    std::sort(snap.matrix.begin(), snap.matrix.end(),
              [](const ConflictCell& a, const ConflictCell& b) {
                if (a.victim != b.victim) return a.victim < b.victim;
                return a.aggressor < b.aggressor;
              });
    for (const auto& [addr_line, ld] : sc->lines) {
      HotLine h;
      h.line = ld.ordinal;
      h.aborts = ld.aborts;
      h.doomed_cycles = ld.doomed_cycles;
      const Site* owner = nullptr;
      std::uint64_t best = 0;
      for (const auto& [vs, n] : ld.victims) {
        if (n > best) {
          best = n;
          owner = vs;
        }
      }
      h.owner = span_name(owner);
      snap.hot_lines.push_back(std::move(h));
    }
    std::sort(snap.hot_lines.begin(), snap.hot_lines.end(),
              [](const HotLine& a, const HotLine& b) {
                if (a.aborts != b.aborts) return a.aborts > b.aborts;
                return a.line < b.line;
              });
    for (unsigned c = 0; c < kClassCount; ++c) {
      snap.unattributed[c] = sc->unattributed[c];
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void report(std::ostream& os) { report_json(os, snapshot()); }

void report_if_enabled() {
  ProfState& ps = state();
  if (!on()) return;
  if (!ps.out_path.empty()) {
    std::ofstream os(ps.out_path, std::ios::trunc);
    if (os) {
      report(os);
      return;
    }
    warn_once("env.PTO_PROF_OUT", "cannot open PTO_PROF_OUT=%s",
              ps.out_path.c_str());
  }
  report(std::cerr);
}

}  // namespace pto::telemetry::prof
