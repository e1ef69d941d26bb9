// pto::telemetry::prof — conflict attribution and latency-class cycle
// accounting for simx runs.
//
// The deterministic simulator knows exactly what real HTM cannot tell you:
// every conflict abort has a known aggressor thread and faulting cache line,
// and every virtual cycle is charged through the CostModel. This layer turns
// that knowledge into a causal profile:
//
//  * a **who-dooms-whom conflict matrix**: each doom() in the HTM model is
//    tagged with the victim's prefix site (the transaction that died), the
//    aggressor's site (the access that killed it — a rival fast path, a
//    fallback, or "(none)" for un-sited code), and the faulting line;
//  * a **hot-line table**: per cache line, how many transactions it doomed,
//    how many cycles of speculative work were thrown away, and which site
//    owns the line (the dominant victim);
//  * a **latency-class cycle ledger**: per prefix site, every charged virtual
//    cycle is classed (load / store / sync / fence / alloc / tx-overhead /
//    pause / bench / other) and attributed to the innermost active span — a
//    committed fast-path attempt, an aborted attempt (retry waste), or a
//    fallback execution. Comparing the fallback profile against the committed
//    fast profile at the same site decomposes the PTO speedup into the
//    paper's four latency classes (fences elided, second reads collapsed,
//    store/descriptor traffic removed, allocation avoided) minus the
//    transaction overhead and retry waste it paid for them — see
//    derive_savings().
//
// Site identity flows in through the telemetry event gate: pto::prefix()'s
// attempt / commit / abort / fallback / fallback-end events open and close
// the spans of the one stack per thread it keeps for the profiler and the
// checker (telemetry/span.h), so every PTO_TELEMETRY_SITE-wired call site is
// profiled with no per-data-structure changes.
//
//   PTO_PROF=json        enable profiling; write the JSON report (one
//                        "pto_prof" record) at process exit. Any other set
//                        value warns once and writes the same report.
//   PTO_PROF_OUT=path    write the report to a file (default: stderr)
//
// tools/pto_report.py is the report's renderer: the cycle ledger, hot lines,
// conflict matrix and unattributed cycles as aligned tables.
//
// Zero overhead when off: every hook is gated on one tap bit, and no
// hook ever charges virtual cycles — simulated results are byte-identical
// with profiling on or off (pinned by tests/test_prof.cpp against the golden
// cycle counts). The recorder is simulator-only and therefore single-host-
// threaded; hooks called outside a simulation are no-ops.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "htm/txcode.h"
#include "telemetry/taps.h"

namespace pto::telemetry {

struct Span;

namespace prof {

/// Cheap gate for every instrumentation point (the profiler's tap).
inline bool on() { return tap_on(kTapProf); }

/// Programmatic control (tests). Enabling does not clear accumulated data;
/// call reset() for a clean slate.
void set_enabled(bool on);

/// Classes a charged virtual cycle can belong to. Coherence-miss surcharges
/// stay with the access that paid them.
enum CycleClass : unsigned {
  kClassLoad = 0,    ///< load_hit (+miss)
  kClassStore,       ///< store_hit (+miss)
  kClassSync,        ///< CAS / RMW, incl. the collapsed in-tx load+store form
  kClassFence,       ///< charged fences (elisions are tracked separately)
  kClassAlloc,       ///< alloc + dealloc + allocator refill traffic
  kClassTxOverhead,  ///< tx_begin + tx_commit
  kClassPause,       ///< cpu_pause backoff
  kClassBench,       ///< op_done loop overhead
  kClassOther,       ///< anything unclassed (defensive; should stay 0)
  kClassCount
};
const char* cycle_class_name(unsigned cls);

// ---------------------------------------------------------------------------
// Simulator-side hooks. Call only when on(), from a virtual thread. None of
// these charge cycles.
// ---------------------------------------------------------------------------

/// `cycles` were charged to the current thread; attribute to its innermost
/// open span (or the scope's unattributed bucket).
void on_charge(unsigned cls, std::uint64_t cycles);
/// A fence inside a transaction was elided (would have cost `cycles`).
void on_fence_elided(std::uint64_t cycles);
/// An in-tx CAS degenerated to load(+store), saving `saved` cycles vs the
/// non-transactional CAS cost.
void on_cas_collapsed(std::uint64_t saved);
/// Bracket allocator internals so nested charges (the refill RMW) class as
/// kClassAlloc rather than kClassSync.
void on_alloc_enter();
void on_alloc_exit();
/// Outermost tx_begin on the current thread: latch its attempt-span site as
/// the transaction's identity for conflict attribution.
void on_tx_begin();
/// Outermost tx_end on the current thread.
void on_tx_commit();
/// The current thread (`aggressor`) doomed `victim`'s transaction on `line`
/// (address / kCacheLine); `doomed_cycles` is the speculative work thrown
/// away (outermost begin to doom, abort penalty included).
void on_conflict(unsigned victim, unsigned aggressor, std::uintptr_t line,
                 std::uint64_t doomed_cycles);
/// The current thread is about to longjmp out of an abort (doomed tx or
/// self-abort): clear unwind-sensitive state (the allocator bracket).
void on_abort_unwind();

/// A commit, abort or fallback-end event at `site` closed span `s` (null
/// when no open span matched). Called by telemetry::on_event, which popped
/// it; folds it into the ledger.
void on_span_end(const Site* site, unsigned event, unsigned cause,
                 const Span* s);

// ---------------------------------------------------------------------------
// Control and reporting.
// ---------------------------------------------------------------------------

/// Switch the accumulation scope (find-or-create by label). Benches label
/// scopes "<fig>/<series>" so the report answers "where did the speedup come
/// from" per series; the default scope is "".
void set_scope(std::string_view label);

/// Drop all accumulated data and per-thread state.
void reset();

/// Write the JSON report of everything accumulated so far.
void report(std::ostream& os);

/// Honor PTO_PROF / PTO_PROF_OUT (the atexit path; callable manually).
void report_if_enabled();

// ---------------------------------------------------------------------------
// Snapshot API (tests and tools).
// ---------------------------------------------------------------------------

/// Classed cycle profile of one span population (committed fast attempts, or
/// fallback executions) at one site.
struct SpanProfile {
  std::uint64_t count = 0;
  std::uint64_t classed[kClassCount] = {};
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : classed) t += c;
    return t;
  }
};

struct SiteLedger {
  std::string site;
  SpanProfile fast;      ///< committed prefix attempts (incl. tx begin/commit)
  SpanProfile fallback;  ///< fallback executions (st.fallback → fallback_done)
  std::uint64_t fence_elided_count = 0;
  std::uint64_t fence_elided_cycles = 0;  ///< exact, committed attempts only
  std::uint64_t cas_collapsed_cycles = 0; ///< exact, committed attempts only
  std::uint64_t retry_waste_cycles = 0;   ///< aborted attempts, begin→abort
  std::uint64_t aborts[kTxCodeCount] = {};
  std::uint64_t aborted_attempts() const {
    std::uint64_t n = 0;
    for (auto a : aborts) n += a;
    return n;
  }
};

/// The paper's four latency classes plus what PTO paid for them, estimated
/// from the ledger: per-committed-op savings are the difference between the
/// site's mean fallback profile and its mean committed-fast profile, scaled
/// by commits. All-zero when the site recorded no fallbacks (no baseline to
/// compare against).
struct SavingsBreakdown {
  double fence_removed = 0;        ///< fence cycles elided
  double second_read_collapsed = 0;///< load traffic removed (double-checks)
  double store_sync_removed = 0;   ///< store + CAS/descriptor traffic removed
  double alloc_avoided = 0;        ///< allocation cycles avoided
  double other_removed = 0;        ///< pause/bench/other diff (≈0 normally)
  double tx_overhead = 0;          ///< tx begin/commit cycles paid (committed)
  double retry_waste = 0;          ///< cycles burned in aborted attempts
  /// Net virtual cycles this site's PTO saved vs running every committed op
  /// down the fallback path.
  double explained() const {
    return fence_removed + second_read_collapsed + store_sync_removed +
           alloc_avoided + other_removed - tx_overhead - retry_waste;
  }
};
SavingsBreakdown derive_savings(const SiteLedger& l);

struct ConflictCell {
  std::string victim;     ///< site whose transaction died ("(none)" if un-sited)
  std::string aggressor;  ///< site whose access killed it
  std::uint64_t count = 0;
  std::uint64_t doomed_cycles = 0;
};

struct HotLine {
  /// The line's order of first conflict in its scope (0, 1, ...): fixed by
  /// the simulation, where a host address would follow ASLR.
  std::uint64_t line = 0;
  std::uint64_t aborts = 0;
  std::uint64_t doomed_cycles = 0;
  std::string owner;  ///< dominant victim site ("(none)" if un-sited)
};

struct ScopeSnapshot {
  std::string label;
  std::vector<SiteLedger> sites;       ///< registration order
  std::vector<ConflictCell> matrix;    ///< victim-major order
  std::vector<HotLine> hot_lines;      ///< aborts desc, then line (all)
  std::uint64_t unattributed[kClassCount] = {};  ///< charges outside any span
};

/// Copy of everything accumulated, in scope-creation order.
std::vector<ScopeSnapshot> snapshot();

/// Cheap monotone roll-up across every scope and site: total classed cycles
/// (fast + fallback spans + unattributed charges), span counts, and retry
/// waste. O(scopes × sites), no conflict matrix or hot-line copying — this
/// is the pto::metrics sampling primitive, called once per interval tick.
/// Monotone non-decreasing except across an explicit reset() (metrics
/// re-baselines on shrink).
struct LedgerTotals {
  std::uint64_t classed[kClassCount] = {};
  std::uint64_t fast_spans = 0;
  std::uint64_t fallback_spans = 0;
  std::uint64_t retry_waste_cycles = 0;
  std::uint64_t total_cycles() const {
    std::uint64_t t = 0;
    for (auto c : classed) t += c;
    return t;
  }
};
LedgerTotals ledger_totals();

}  // namespace prof
}  // namespace pto::telemetry
