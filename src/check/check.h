// pto::check — deterministic race and opacity checking for simx runs.
//
// PTO's safety argument (paper Theorems 2 & 3) is that eliding fences,
// double-checks, CAS latencies, and allocation inside a prefix transaction is
// sound *because* any conflicting access aborts the transaction. Nothing in
// that argument protects code that runs OUTSIDE a transaction: a fallback
// path that publishes with a relaxed store, or a retry that reuses a value it
// read inside an attempt that was later doomed. Those are exactly the bugs
// the HTM-template literature (Brown; Cai–Wen–Scott NBTC) warns about, and
// simx — which already intercepts every instrumented access with a
// deterministic schedule — is the right substrate to check for them.
//
// Two checkers share one gate (`PTO_CHECK=1|report`, or set_enabled()):
//
//  1. **Vector-clock data-race detector.** Every virtual thread carries a
//     vector clock. Happens-before edges come from the operations that order
//     memory on the modeled machine:
//       - seq_cst fences (including the fence half of a seq_cst store) drain
//         the thread's "store buffer": each plainly-written location becomes
//         acquirable, and fences additionally synchronize with each other
//         through a global fence clock;
//       - CAS / RMW operations are full barriers that release into and
//         acquire from the accessed location;
//       - transactional accesses of a prefix body: the HTM orders a committed
//         transaction against every conflicting access (strong atomicity +
//         requester-wins), so in-tx reads acquire and in-tx writes release
//         regardless of their nominal memory order — this is Theorem 2 as an
//         HB rule, and it is why relaxed accesses inside a prefix body are
//         never reported;
//       - run() start (fork) and completion (join) of the virtual threads.
//     Every load additionally acquires the accessed location's release
//     history (x86-TSO per-location coherence plus dependency ordering: the
//     target ISA never reorders a load before the store it reads from).
//     A **plain** access is a relaxed, non-transactional one. Two concurrent
//     plain accesses to the same address, at least one a write, with no HB
//     path are reported with both sites: each access is attributed to the
//     innermost open prefix span of its thread, read from the one span stack
//     the telemetry event gate keeps for the profiler and the checker
//     (telemetry/span.h).
//
//  2. **Opacity / doomed-read checker.** Each transactional read is logged
//     (address, observed value). When a transaction is doomed by a conflict,
//     logged reads that are *invalidated* — their location now holds a
//     different value (the undo rolled back a read-your-own-write, or the
//     aggressor already overwrote it) or they sit on the faulting cache
//     line — poison their observed values (pointer-looking values only).
//     After the abort, using a poisoned value as an address (a load or store
//     whose target equals it) or storing a poisoned value into the shared
//     heap is reported: that value came from a speculation the hardware
//     already declared inconsistent. A later load that *returns* the same
//     value re-validates it (the retry legitimately re-read the pointer), so
//     ordinary retry loops stay silent. Branches on doomed values are not
//     directly observable at this instrumentation level; the harmful
//     outcomes of such branches (a dereference or a store) are what get
//     caught. Poison expires at the operation boundary (sim::op_done).
//
// Like pto::prof, checking is observation-only: no hook charges virtual
// cycles, so a checked run's simulated clocks are byte-identical to an
// unchecked run (pinned by tests/test_check.cpp). All hooks run on the
// single simulator host thread; outside a simulation they are no-ops.
//
//   PTO_CHECK=1        enable; one-line summary per finding at process exit
//   PTO_CHECK=report   enable; full report (stats + capacity table) at exit
//   PTO_CHECK_OUT=path write the exit report to a file (default: stderr)
//   PTO_CHECK_MAX=N    distinct findings kept (default 100)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/taps.h"

namespace pto::check {

/// Cheap gate for every instrumentation point in the simulator (the
/// checker's tap).
inline bool on() { return telemetry::tap_on(telemetry::kTapCheck); }

/// Programmatic control (tests). Enabling does not clear accumulated
/// findings; call reset() for a clean slate.
void set_enabled(bool on);

/// Drop all findings, shadow state, and per-thread checker state.
void reset();

enum class FindingKind : unsigned {
  kRaceWriteWrite = 0,  ///< two concurrent plain writes
  kRaceReadWrite,       ///< plain write concurrent with an earlier plain read
  kRaceWriteRead,       ///< plain read of a concurrent earlier plain write
  kDoomedAddressUse,    ///< poisoned tx-read value used as an access address
  kDoomedValueStore,    ///< poisoned tx-read value stored to the shared heap
  kOverCapacity,        ///< prefix site that only ever capacity-aborts
};
const char* finding_kind_name(FindingKind k);

struct Finding {
  FindingKind kind;
  std::uintptr_t addr = 0;  ///< faulting address (first occurrence)
  std::uint64_t line = 0;   ///< addr / kCacheLine
  unsigned tid_a = 0;       ///< prior access (races) / victim tx (doomed)
  unsigned tid_b = 0;       ///< current access
  std::string site_a;       ///< attribution of the prior access / tx
  std::string site_b;       ///< attribution of the current access
  std::uint64_t count = 0;  ///< occurrences folded into this finding
};

/// Copy of every distinct finding recorded so far, in discovery order.
std::vector<Finding> findings();
std::uint64_t finding_count();

/// Virtual threads the checker holds state for: sized when a checked run
/// begins, so 0 until then (and after reset()).
std::size_t thread_states();

/// Aggregate checker statistics (reported in `report` mode).
struct Stats {
  std::uint64_t plain_reads = 0;
  std::uint64_t plain_writes = 0;
  std::uint64_t sync_ops = 0;
  std::uint64_t tx_reads_logged = 0;
  std::uint64_t doomed_txs = 0;
  std::uint64_t poisoned_values = 0;
  std::uint64_t revalidated_values = 0;
  std::uint64_t tx_log_overflows = 0;
  std::uint64_t findings_dropped = 0;  ///< beyond PTO_CHECK_MAX
};
Stats stats();

/// Write a findings report. `full` additionally dumps checker statistics and
/// the per-site capacity table, by site id (the PTO_CHECK=report format).
void report(std::ostream& os, bool full);

/// Honor PTO_CHECK / PTO_CHECK_OUT (the atexit path; callable manually).
void report_if_enabled();

// ---------------------------------------------------------------------------
// Simulator-side hooks. Call only when on(), from the simulation host thread.
// None of these charge virtual cycles. `order` is the C++ memory order of
// the access as a plain unsigned (std::memory_order_relaxed == 0 ...
// std::memory_order_seq_cst == 5).
// ---------------------------------------------------------------------------

void on_run_begin(unsigned nthreads);
void on_run_end();
void on_load(unsigned tid, const void* addr, unsigned size,
             std::uint64_t value, unsigned order, bool in_tx);
void on_store(unsigned tid, void* addr, unsigned size, std::uint64_t value,
              unsigned order, bool in_tx);
/// CAS (wrote == success) and fetch_add (wrote == true). `observed` is the
/// value the primitive read.
void on_rmw(unsigned tid, void* addr, unsigned size, std::uint64_t observed,
            bool wrote, bool in_tx);
void on_fence(unsigned tid);
void on_tx_begin(unsigned tid);
void on_tx_commit(unsigned tid);
/// `victim`'s transaction was doomed by a conflict on `line`
/// (addr / kCacheLine). Called after the undo rollback.
void on_tx_doomed(unsigned victim, std::uintptr_t line);
/// The current thread self-aborted (capacity/duration/explicit/spurious);
/// rset/wset are the tracked footprint sizes at abort.
void on_tx_self_abort(unsigned tid, unsigned cause, std::size_t rset,
                      std::size_t wset);
void on_op_done(unsigned tid);

/// A commit, abort or fallback-end event at `site` left `depth` spans open
/// on the current thread (telemetry::on_event popped; telemetry/span.h).
void on_span_end(const telemetry::Site* site, unsigned event,
                 unsigned depth);

}  // namespace pto::check
