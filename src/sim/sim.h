// simx: a deterministic simulated multicore for evaluating concurrent data
// structures and best-effort HTM on machines without many cores (or without
// TSX). See DESIGN.md §2 and §5.
//
// Model
// -----
// Each virtual thread is a ucontext fiber with its own virtual clock
// (cycles). At every instrumented shared-memory access the runtime charges a
// cost from the CostModel and then lets the *globally least-advanced* thread
// run — a discrete-event approximation of true parallel overlap. Scheduling
// is a pure function of clocks and thread indices, so a run is exactly
// reproducible.
//
// Memory is modeled at cache-line (64 B) granularity: a per-line sharer
// bitmask approximates MESI (first access after a remote write costs a
// coherence miss), and per-line transactional reader/writer sets implement a
// best-effort HTM with *requester-wins* conflict detection and strong
// atomicity, mirroring Intel TSX as characterized in the paper (§4.3).
// Transactional writes are performed in place with an undo log; a doomed
// transaction is rolled back synchronously by the conflicting access (legal:
// one host thread) and the victim longjmps to its checkpoint when next
// scheduled.
//
// The allocator is an arena that never reuses memory within a run; freed
// lines are marked and (optionally) trapped on later non-transactional
// access, which both detects use-after-free bugs in tests and makes
// *epoch elision inside transactions* safe, exactly as real strong atomicity
// does (paper §5).
#pragma once

#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/defs.h"
#include "explore/explore.h"
#include "htm/txcode.h"

namespace pto::sim {

/// Cycle costs charged per event. Defaults are calibrated to commodity x86
/// (DESIGN.md §5.3); every figure's shape claims are driven by *ratios* of
/// these, and the ablation bench abl_htm_boundary sweeps tx_begin/tx_commit.
struct CostModel {
  std::uint64_t load_hit = 1;
  std::uint64_t store_hit = 1;
  std::uint64_t coherence_miss = 40;  ///< first access to a remotely-written line
  std::uint64_t cas = 24;             ///< non-transactional CAS / RMW
  std::uint64_t fence = 33;           ///< seq_cst fence (MFENCE / XCHG)
  std::uint64_t tx_begin = 25;        ///< XBEGIN (Haswell ~45 cycles round trip)
  std::uint64_t tx_commit = 20;       ///< XEND
  std::uint64_t tx_abort_penalty = 15;
  std::uint64_t alloc = 80;           ///< malloc fast path + metadata
  std::uint64_t dealloc = 40;
  std::uint64_t pause = 5;
  /// Charged per op_done(): the benchmark loop itself (RNG, branch, call
  /// overhead) — keeps transactional sections a realistic fraction of the
  /// op, which governs abort rates under contention.
  std::uint64_t bench_op_overhead = 30;
};

/// Best-effort HTM limits (abort causes (a) and (b) from the paper's §1;
/// cause (c), spurious aborts, comes from the fault model, Config::explore).
struct HtmConfig {
  unsigned max_write_lines = 64;          ///< ~4 KB write set
  unsigned max_read_lines = 512;          ///< tracked read set
  std::uint64_t max_duration = 200'000;   ///< cycles before a duration abort
};

struct Config {
  CostModel cost;
  HtmConfig htm;
  std::uint64_t seed = 1;
  /// Fig 5(b,c) ablation: when true, fences *inside* transactions still cost
  /// CostModel::fence (the "PTO(Fence)" variants).
  bool fences_in_tx = false;
  /// Detect non-transactional access to freed lines (tests).
  bool trap_use_after_free = true;
  /// Schedule exploration and HTM fault injection (explore/explore.h). The
  /// default (Policy::kEnv) resolves PTO_SCHED / PTO_HTM_FAULTS at run
  /// start; with the resulting rr policy the dispatcher — and so every
  /// simulated cycle — is bit-for-bit the plain deterministic one.
  explore::Options explore;
};

struct ThreadStats {
  /// Times this virtual thread was switched to (including its first
  /// dispatch); the scheduler-invariant tests key off this.
  std::uint64_t dispatches = 0;
  std::uint64_t loads = 0, stores = 0, cas_ops = 0, rmws = 0;
  std::uint64_t fences = 0, fences_elided = 0;
  std::uint64_t allocs = 0, frees = 0;
  std::uint64_t tx_started = 0, tx_commits = 0;
  std::uint64_t tx_aborts[kTxCodeCount] = {};
  /// Virtual cycles spent inside transactions, committed or aborted
  /// (outermost begin to commit/abort, abort penalty included).
  std::uint64_t tx_cycles = 0;
  std::uint64_t ops_completed = 0;  ///< benchmark-level operations (op_done)

  std::uint64_t total_aborts() const {
    std::uint64_t n = 0;
    for (auto a : tx_aborts) n += a;
    return n;
  }
  void accumulate(const ThreadStats& o);
};

struct RunResult {
  std::vector<ThreadStats> stats;
  std::vector<std::uint64_t> clocks;
  std::uint64_t uaf_count = 0;  ///< use-after-free accesses detected

  /// Virtual time at which the last thread finished.
  std::uint64_t makespan() const;
  ThreadStats totals() const;
  /// Benchmark throughput in operations per simulated millisecond, assuming
  /// the paper's 3.4 GHz clock (so numbers share units with the figures).
  double ops_per_msec() const;
};

/// Execute body(tid) on `nthreads` virtual threads until all return.
/// Reentrant runs are not allowed (one simulation at a time per process).
RunResult run(unsigned nthreads, const Config& cfg,
              const std::function<void(unsigned)>& body);

// ---------------------------------------------------------------------------
// Hooks — valid only while inside run(), i.e. on a virtual thread.
// ---------------------------------------------------------------------------

bool active();          ///< true when called from inside a simulation
unsigned thread_id();
std::uint64_t now();    ///< current virtual thread's clock
std::uint64_t rnd();    ///< deterministic per-thread random value
/// Strictly increasing per call, process-global. Under an adversarial
/// schedule (explore::Policy) per-thread clocks no longer order observable
/// events — a deprioritized thread's clock lags arbitrarily — so history
/// recorders (tests/linearizability.h) timestamp invocations and responses
/// with this counter instead: the simulator serializes every event on one
/// host thread, making call order exactly the observable real-time order
/// under every scheduling policy.
std::uint64_t global_seq();
void op_done(std::uint64_t n = 1);
void cpu_pause();       ///< backoff hint; charges CostModel::pause

/// `order` is the C++ memory order of the access as a plain unsigned
/// (std::memory_order_relaxed == 0 ... seq_cst == 5). It never affects
/// costs or scheduling — the simulated machine is TSO and SimPlatform
/// charges fences separately — but pto::check uses it to distinguish
/// plain (relaxed) accesses from synchronizing ones.
std::uint64_t mem_load(const void* addr, unsigned size, unsigned order = 5);
void mem_store(void* addr, unsigned size, std::uint64_t val,
               unsigned order = 5);
/// On failure, `expected` is updated with the observed value.
bool mem_cas(void* addr, unsigned size, std::uint64_t& expected,
             std::uint64_t desired);
std::uint64_t mem_fetch_add(void* addr, unsigned size, std::uint64_t delta);
void fence();

/// The checkpoint must be armed with setjmp before calling tx_begin (done by
/// pto::prefix). Returns TX_STARTED; aborts longjmp the checkpoint with a
/// TxAbort cause.
unsigned tx_begin();
void tx_end();
[[noreturn]] void tx_abort(unsigned char user_code);
bool in_tx();
std::jmp_buf& tx_checkpoint();
unsigned char last_user_code();

void* alloc(std::size_t bytes);
void dealloc(void* p, std::size_t bytes);

/// Forget the process-global arena and line table (invalid while a
/// simulation is running). Call between benchmark points; everything
/// allocated through sim::alloc so far becomes invalid. The storage is kept
/// and handed out again, with fresh line metadata, to the runs after it.
void reset_memory();

/// Total use-after-free accesses detected since process start / last run.
std::uint64_t uaf_count();

}  // namespace pto::sim
