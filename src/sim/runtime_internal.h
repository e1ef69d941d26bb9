// Internal state of the simulator runtime, shared by runtime.cpp,
// scheduler.cpp, memory.cpp, htm_model.cpp and allocator.cpp. Not part of the
// public API — include sim/sim.h instead.
#pragma once

#include <algorithm>
#include <csetjmp>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/defs.h"
#include "common/rng.h"
#include "common/threadset.h"
#include "explore/explorer.h"
#include "metrics/metrics.h"
#include "sim/fiber.h"
#include "sim/sim.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

namespace pto::sim::internal {

inline constexpr unsigned kNobody = 0xFFFFFFFFu;
/// Host bytes per fiber: the stack and the red zone below it (sim/fiber.h).
/// Runs of <= kFiberStackSmallCutoff threads get the roomy classic stacks;
/// larger fleets drop to kFiberStackLarge so a 1024-vthread run costs
/// ~128 MB of stacks, not 512 MB. The red zone comes out of these round
/// sizes: a larger block changes how the host heap reuses freed stacks
/// (sim-kv-twin's peak RSS went from a steady 51.8 MB to anywhere in
/// 47-57 MB). PTO_SIM_STACK_KB (runtime.cpp) sets the stack alone.
inline constexpr std::size_t kFiberStack = 512 * 1024;
inline constexpr std::size_t kFiberStackLarge = 128 * 1024;
inline constexpr unsigned kFiberStackSmallCutoff = 64;
std::size_t fiber_stack_bytes(unsigned nthreads);

// ---------------------------------------------------------------------------
// Per-line metadata. Each simulated line tracks two kMaxThreads-bit thread
// sets (sharers and tx readers), but only word 0 of each is stored inline,
// so a LineState is 32 bytes and a 4096-line region 128 KiB. Words
// 1..kThreadWords-1 of both sets share one HighWords block, which the line
// takes from its LineTable the first time a tid >= 64 joins either set: runs
// of <= 64 threads never allocate one, and wide runs pay for it only on the
// lines their high tids touch.
// ---------------------------------------------------------------------------

/// Words 1..kThreadWords-1 of a line's two sets: the sharers' word i is
/// w[i], the tx readers' w[kThreadWords + i]. Slots 0 and kThreadWords are
/// unused, which puts each set's words on two host cache lines of their own.
struct alignas(kCacheLine) HighWords {
  std::uint64_t w[2 * kThreadWords];
};

class LineSet;

struct alignas(32) LineState {
  std::uint64_t lo[2] = {0, 0};  ///< word 0 of sharers, of tx readers
  HighWords* high = nullptr;     ///< their other words; null until needed
  unsigned tx_writer = kNobody;  ///< at most one tx writer (requester-wins)
  bool freed = false;

  LineSet sharers();     ///< threads with this line "cached"
  LineSet tx_readers();  ///< txs with this line in their read set
};
static_assert(sizeof(LineState) <= 32, "line metadata must stay compact");
static_assert(sizeof(LineState) == alignof(LineState) &&
                  kCacheLine % alignof(LineState) == 0,
              "a LineState must never straddle a host cache line");

/// A zeroed HighWords block from g_mem's line table (memory.cpp).
HighWords* take_high_words();

/// One of a line's two thread sets, as a view into its LineState. Every
/// operation means what the same ThreadSet operation means at every word
/// count `nw`, down to the visit order of for_each_other; words past 0 read
/// as zero while the line has no HighWords block.
class LineSet {
 public:
  LineSet(LineState& line, unsigned which) : l_(line), which_(which) {}

  bool test(unsigned tid) const {
    return (word(ThreadSet::word_of(tid)) & ThreadSet::bit_of(tid)) != 0;
  }

  void set(unsigned tid) {
    const unsigned wi = ThreadSet::word_of(tid);
    if (PTO_LIKELY(wi == 0)) {
      l_.lo[which_] |= ThreadSet::bit_of(tid);
      return;
    }
    if (l_.high == nullptr) l_.high = take_high_words();
    hi(wi) |= ThreadSet::bit_of(tid);
  }

  void clear(unsigned tid) {
    const unsigned wi = ThreadSet::word_of(tid);
    if (PTO_LIKELY(wi == 0)) {
      l_.lo[which_] &= ~ThreadSet::bit_of(tid);
    } else if (l_.high != nullptr) {
      hi(wi) &= ~ThreadSet::bit_of(tid);
    }
  }

  /// Zero the first `nw` words.
  void reset(unsigned nw) {
    l_.lo[which_] = 0;
    if (l_.high == nullptr) return;
    for (unsigned i = 1; i < nw; ++i) hi(i) = 0;
  }

  /// The exclusive take: only `tid` remains set in the first `nw` words.
  void assign_single(unsigned tid, unsigned nw) {
    reset(nw);
    set(tid);
  }

  /// Any member besides `self` in the first `nw` words (or in self's own)?
  bool any_other(unsigned self, unsigned nw) const {
    const unsigned wi = ThreadSet::word_of(self);
    std::uint64_t acc = word(wi) & ~ThreadSet::bit_of(self);
    if (wi != 0) acc |= l_.lo[which_];
    if (l_.high != nullptr) {
      for (unsigned i = 1; i < nw; ++i) {
        if (i != wi) acc |= hi(i);
      }
    }
    return acc != 0;
  }

  /// Visit every member of the first `nw` words except `self`, ascending.
  /// Each word is read just before its members are visited, so a callback
  /// that clears members (doom() releasing a victim's footprint) never
  /// changes which members of the current word are visited.
  template <class F>
  void for_each_other(unsigned self, unsigned nw, F&& f) const {
    const unsigned wi = ThreadSet::word_of(self);
    for (unsigned i = 0; i < nw; ++i) {
      std::uint64_t m = word(i);
      if (i == wi) m &= ~ThreadSet::bit_of(self);
      while (m != 0) {
        f(i * 64 + static_cast<unsigned>(__builtin_ctzll(m)));
        m &= m - 1;
      }
    }
  }

 private:
  std::uint64_t word(unsigned i) const {
    if (PTO_LIKELY(i == 0)) return l_.lo[which_];
    return l_.high != nullptr ? hi(i) : 0;
  }
  std::uint64_t& hi(unsigned i) const {
    return l_.high->w[which_ * kThreadWords + i];
  }

  LineState& l_;
  unsigned which_;
};

inline LineSet LineState::sharers() { return LineSet(*this, 0); }
inline LineSet LineState::tx_readers() { return LineSet(*this, 1); }

struct UndoEntry {
  void* addr;
  unsigned size;
  std::uint64_t old_val;
};

struct TxDesc {
  bool active = false;
  bool doomed = false;
  int depth = 0;  ///< flat-nesting depth beyond outermost begin
  unsigned doom_cause = 0;
  unsigned char user_code = TX_CODE_NONE;
  /// Effective read/write capacities for this transaction, set at the
  /// outermost tx_begin: the HtmConfig limits, jittered downward when HTM
  /// fault injection is active (explore::Options::fault_rate).
  unsigned rcap = 0;
  unsigned wcap = 0;
  std::uint64_t start = 0;
  std::jmp_buf env;
  std::vector<UndoEntry> undo;
  // Footprint as direct LineState pointers (stable: pages never move), so
  // releasing a footprint is pure pointer chasing with no table lookups.
  std::vector<LineState*> rlines;
  std::vector<LineState*> wlines;
};

struct VThread {
  std::unique_ptr<Fiber> fiber;
  std::uint64_t clock = 0;
  bool done = false;
  TxDesc tx;
  SplitMix64 rng;
  /// Fault-injection stream (explore), separate from the workload RNG so
  /// enabling PTO_HTM_FAULTS never perturbs workload key sequences.
  SplitMix64 fault_rng;
  ThreadStats stats;
  unsigned char last_user_code = TX_CODE_NONE;
  /// Thread-cache model (glibc tcache / tcmalloc): only every
  /// kTcacheRefill-th allocation touches the shared allocator word.
  unsigned alloc_tick = 0;
};

inline constexpr unsigned kTcacheRefill = 64;

/// Bump arena of line-aligned chunks. It never reuses memory within a run,
/// so freed lines stay poisoned and use-after-free is detectable. reset()
/// keeps the chunks and carves them again from the first, so a process that
/// replays many runs holds its peak arena instead of allocating it anew.
class Arena {
 public:
  void* allocate(std::size_t bytes);
  void reset() {
    next_ = 0;
    cur_ = nullptr;
    left_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<char[]> mem;
    std::size_t bytes;  ///< usable bytes past the line-aligned start
  };
  /// Make the next kept chunk that fits `bytes` current, or a new one.
  void next_chunk(std::size_t bytes);

  static constexpr std::size_t kChunk = 4u << 20;
  std::vector<Chunk> chunks_;
  std::size_t next_ = 0;  ///< chunks_[next_] is the next one to carve
  char* cur_ = nullptr;
  std::size_t left_ = 0;
};

// ---------------------------------------------------------------------------
// Line-metadata table. The previous std::unordered_map<line, LineState> cost
// a hash + bucket chase on *every* instrumented access; this is a two-level
// structure instead: an open-addressed probe table over 256 KB regions (one
// expected probe), each region backed by a flat dense LineState[4096] indexed
// by line offset. Arena traffic — the bulk of all accesses — lands in a
// handful of regions; stack and global addresses get regions lazily through
// the same probe path. clear() (reset_memory) forgets every line but keeps
// the regions and HighWords blocks, and hands them out again, re-initialized,
// to the lines of later runs.
// ---------------------------------------------------------------------------

inline constexpr unsigned kRegionShift = 18;  ///< 256 KB regions
inline constexpr unsigned kLinesPerRegion =
    (1u << kRegionShift) / kCacheLine;  // 4096

struct LineRegion {
  LineState lines[kLinesPerRegion];
};

class LineTable {
 public:
  LineTable() { init_table(64); }
  LineTable(const LineTable&) = delete;
  LineTable& operator=(const LineTable&) = delete;

  LineState& line_of(const void* addr) {
    auto a = reinterpret_cast<std::uintptr_t>(addr);
    return region_for(a >> kRegionShift)
        ->lines[(a / kCacheLine) & (kLinesPerRegion - 1)];
  }

  /// Lookup by line index (addr / kCacheLine).
  LineState& line_by_index(std::uintptr_t la) {
    return region_for(la >> (kRegionShift - 6))
        ->lines[la & (kLinesPerRegion - 1)];
  }

  /// Forget every line (reset_memory); the storage stays for reuse.
  void clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    used_ = 0;
    high_used_ = 0;
  }

  /// A zeroed HighWords block (memory.cpp).
  HighWords* take_high_words();
  /// HighWords blocks handed out since the last clear().
  std::size_t high_words_used() const { return high_used_; }

 private:
  static constexpr std::uintptr_t kEmpty = ~std::uintptr_t{0};
  static constexpr std::size_t kHighWordsPerChunk = 256;  // 64 KiB

  LineRegion* region_for(std::uintptr_t region) {
    std::size_t i = probe_start(region);
    for (;;) {
      if (keys_[i] == region) return vals_[i];
      if (keys_[i] == kEmpty) return create_region(region);
      i = (i + 1) & mask_;
    }
  }

  std::size_t probe_start(std::uintptr_t region) const {
    return (region * 0x9E3779B97F4A7C15ull >> 40) & mask_;
  }

  // Cold path: materialize a region (memory.cpp).
  LineRegion* create_region(std::uintptr_t region);
  void grow();
  void init_table(std::size_t cap);

  std::vector<std::uintptr_t> keys_;
  std::vector<LineRegion*> vals_;
  std::size_t mask_ = 0;
  /// Keys in the table. Regions are handed out in order, so regions_[used_]
  /// is the next one to reuse.
  std::size_t used_ = 0;
  std::vector<std::unique_ptr<LineRegion>> regions_;
  std::vector<std::unique_ptr<HighWords[]>> high_chunks_;
  std::size_t high_used_ = 0;
};

/// Process-global memory state. Global (not per-run) so that benchmark
/// fixtures built outside sim::run() — or across a setup run and a measure
/// run — stay valid; sim::reset_memory() forgets everything between
/// measurement points and keeps the storage for the runs after it.
struct GlobalMemory {
  LineTable lines;
  Arena arena;
  /// Active line-set word count: the monotonic max of (nthreads+63)/64 over
  /// every run since the last reset_memory(). Lines persist across runs, so
  /// a run after a wide run must keep scanning the high words its
  /// predecessor may have populated; reset_memory() drops it back to 1.
  unsigned line_words = 1;
  std::uint64_t uaf_count = 0;
  /// Shared allocator-metadata word: every alloc/free RMWs it through the
  /// normal coherence/conflict machinery, modeling allocator contention (and
  /// the real-world hazard that malloc inside a transaction conflicts).
  std::uint64_t alloc_word = 0;

  LineState& line_of(const void* addr) { return lines.line_of(addr); }
};

extern GlobalMemory g_mem;

/// Call f(index, line) for every line of [p, p + bytes), at least one.
template <class F>
void for_each_line(void* p, std::size_t bytes, F&& f) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t last = (a + (bytes ? bytes - 1 : 0)) / kCacheLine;
  for (std::uintptr_t la = a / kCacheLine; la <= last; ++la) {
    f(la, g_mem.lines.line_by_index(la));
  }
}

class Runtime {
 public:
  /// Throws std::invalid_argument for nthreads outside [1, kMaxThreads]:
  /// per-line conflict tracking uses kMaxThreads-bit sets and the packed
  /// dispatcher key reserves 10 bits for the tid.
  Runtime(unsigned nthreads, const Config& cfg);

  Config cfg;
  /// Set words every per-line scan covers this run (g_mem.line_words
  /// at construction: wide enough for this run *and* for any stale bits a
  /// wider earlier run may have left on persisting lines). 1 for <= 64
  /// threads, which keeps every mask operation the old single-word sequence.
  unsigned nwords = 1;
  /// cfg.explore resolved against the environment (explore::resolved).
  explore::Options xopts;
  /// Non-null iff xopts is an adversarial policy (pct/rand/replay); with rr
  /// the dispatcher below runs exactly the classic min-clock schedule.
  std::unique_ptr<explore::internal::Explorer> explorer;
  std::vector<VThread> threads;
  unsigned cur = 0;
  ExecContext main_ctx{};

  VThread& me() { return threads[cur]; }
  LineState& line_of(const void* addr) { return g_mem.line_of(addr); }

  // scheduler.cpp — O(1) min-clock dispatch with direct fiber switches.
  //
  // Invariant: the running thread `cur` is a clock minimum over runnable
  // threads (ties keep the incumbent running); every other runnable thread
  // sits in a binary min-heap of (clock << 10 | tid) keys, so the lowest-
  // index-on-tie dispatch order of the original scan is preserved by plain
  // integer comparison. `next_min_clock_` caches the heap root's clock, so
  // the per-access yield decision in advance() is a single compare.
  /// Run all fibers to completion; returns when every virtual thread is done.
  void run_all();
  /// The one charge edge of every hook: class `cost` cycles as `cls` for the
  /// profiler, charge them to the current thread, yield if another runnable
  /// thread is now strictly behind, and finish any doom that landed
  /// meanwhile (longjmps).
  void advance(std::uint64_t cost, unsigned cls) {
    if (PTO_UNLIKELY(telemetry::prof::on())) {
      telemetry::prof::on_charge(cls, cost);
    }
    VThread& t = me();
    t.clock += cost;
    // Virtual-time metrics ticker (PTO_METRICS on simx). The running thread
    // is a clock minimum over runnable threads, so its clock is virtual
    // "now"; the tick emits from host memory only — no cycles charged, no
    // simulated allocation, no schedule perturbation. One compare against a
    // sentinel (~0 when off) on the hot path.
    if (PTO_UNLIKELY(t.clock >= metrics::detail::g_sim_next_tick)) {
      metrics::detail::sim_tick(t.clock);
    }
    if (PTO_UNLIKELY(explorer != nullptr)) {
      explore_step();
    } else if (PTO_UNLIKELY(t.clock > next_min_clock_)) {
      yield_to_next();
    }
    check_doom();
  }
  /// Switch directly to the minimum-clock runnable thread (callee of
  /// advance() when the current thread fell strictly behind).
  void yield_to_next();
  /// Current fiber finished its body: leave the runnable set and switch to
  /// the next runnable fiber, or back to the host when none remain.
  [[noreturn]] void on_fiber_done();
  /// Re-sift `tid` after its clock increased while suspended (doom penalty)
  /// and refresh the cached yield threshold.
  void on_clock_raised(unsigned tid);
  /// Doom-storm batching: between begin/end, doom() rewrites each victim's
  /// heap key in place and defers the re-sift; end_doom_batch() restores the
  /// heap with one deepest-first sift pass and a single threshold refresh,
  /// so a store that dooms k readers costs one heap repair, not k. The pop
  /// order of a binary min-heap over distinct keys is layout-independent,
  /// so batching cannot change the schedule. Batches must not span a
  /// charge or a longjmp (requester_wins keeps them tight around its dooms).
  void begin_doom_batch() {
    assert(!doom_batch_);
    doom_batch_ = true;
  }
  void end_doom_batch();
  /// Preemption point under an adversarial policy: consult the Explorer and
  /// switch fibers when it picks a different thread (callee of advance()).
  void explore_step();

  // The rules every memory hook states once (defined below the class).
  /// The access prologue: finish a pending doom, find the line of `addr`,
  /// and count a use after free.
  LineState& begin_access(const void* addr);
  /// Read coherence: a thread that does not share line `la` misses and
  /// becomes a sharer. Returns the miss surcharge (0 on a hit).
  std::uint64_t share_line(LineState& L, std::uintptr_t la);
  /// Write coherence: a line any other thread shares costs a miss, and the
  /// writer becomes its only sharer. Returns the miss surcharge.
  std::uint64_t own_line(LineState& L, std::uintptr_t la);
  /// Requester wins (strong atomicity, paper §4.3): an access of line `la`,
  /// transactional or not, dooms the line's other tx writer; a write also
  /// dooms every other tx reader, inside one doom batch (the caller's, when
  /// it holds one).
  void requester_wins(LineState& L, std::uintptr_t la, bool write);

  // htm_model.cpp
  /// Roll back and doom the transaction of `victim` (requester wins).
  /// `line` is the faulting line index (addr / kCacheLine) for conflict
  /// attribution (telemetry/prof.h); pass 0 for non-conflict causes.
  void doom(unsigned victim, unsigned cause, std::uintptr_t line);
  /// Abort the *current* thread's transaction and longjmp out. Never returns.
  [[noreturn]] void self_abort(unsigned cause, unsigned char user_code);
  /// If the current thread's tx was doomed while it was switched out,
  /// finish the abort (longjmp). Every hook runs it on entry and, through
  /// advance(), after its charge.
  void check_doom() {
    if (PTO_UNLIKELY(me().tx.doomed)) unwind(me().tx.doom_cause);
  }
  /// Clear per-line registrations and the undo log of thread `t`'s tx.
  void release_tx_footprint(TxDesc& tx, unsigned tid);
  void tx_access_checks();  ///< duration + injected aborts for current tx
  /// One draw of the current thread's fault stream (explore fault model):
  /// true with probability xopts.fault_rate; no draw while that is 0.
  bool fault_coin();

  // memory.cpp — hook bodies (public wrappers in sim.h forward here)
  std::uint64_t do_load(const void* addr, unsigned size, unsigned order);
  void do_store(void* addr, unsigned size, std::uint64_t val, unsigned order);
  bool do_cas(void* addr, unsigned size, std::uint64_t& expected,
              std::uint64_t desired);
  /// `cls`: the profiler class of the RMW's charge (kClassSync, or
  /// kClassAlloc for the allocator's refill).
  std::uint64_t do_fetch_add(void* addr, unsigned size, std::uint64_t delta,
                             unsigned cls);
  void do_fence();

  // allocator.cpp
  void* do_alloc(std::size_t bytes);
  void do_dealloc(void* p, std::size_t bytes);

 private:
  /// Packed-key geometry: low kTidBits hold the tid, the rest the clock.
  static constexpr unsigned kTidBits = 10;
  static_assert((1u << kTidBits) >= kMaxThreads);
  static constexpr unsigned kTidMask = (1u << kTidBits) - 1;
  static constexpr std::uint16_t kNoPos = 0xFFFF;

  static std::uint64_t pack(std::uint64_t clock, unsigned tid) {
    assert(clock < (std::uint64_t{1} << (64 - kTidBits)));
    return (clock << kTidBits) | tid;
  }
  static unsigned key_tid(std::uint64_t key) {
    return static_cast<unsigned>(key & kTidMask);
  }

  /// Make `next` the running thread: count its dispatch, trace it, and
  /// switch to its fiber from `from` (a fiber's context or the host's).
  void switch_to(ExecContext& from, unsigned next);
  /// The abort doom() and self_abort() share: undo `tid`'s in-place writes,
  /// release its footprint, pay the penalty, count the abort, trace it.
  void abort_tx(unsigned tid, unsigned cause);
  /// Leave the current thread's aborted transaction: longjmp to its
  /// checkpoint with `cause`.
  [[noreturn]] void unwind(unsigned cause);
  /// The thread-cache tick of every alloc and free (kTcacheRefill).
  void tcache_tick();

  void refresh_threshold() {
    next_min_clock_ =
        ready_size_ != 0 ? (ready_[0] >> kTidBits) : ~std::uint64_t{0};
  }
  void heap_sift_down(unsigned i);
  /// Pop the minimum; returns its tid.
  unsigned heap_pop_min();
  /// Pop the minimum and insert `key` in a single sift; returns popped tid.
  unsigned heap_replace_min(std::uint64_t key);

  /// Binary min-heap of packed (clock, tid) keys over runnable threads other
  /// than `cur`, with a tid -> slot index for doom()'s increase-key.
  std::uint64_t ready_[kMaxThreads];
  unsigned ready_size_ = 0;
  std::uint16_t heap_pos_[kMaxThreads];
  /// Clock of the heap root: the single threshold advance() compares against.
  std::uint64_t next_min_clock_ = ~std::uint64_t{0};
  /// Runnable-thread set, maintained only under an adversarial policy
  /// (the Explorer picks among these; the heap above is untouched).
  ThreadSet runnable_;
  /// Doom-batch state: heap positions whose keys doom() rewrote in place.
  bool doom_batch_ = false;
  unsigned dirty_count_ = 0;
  std::uint16_t dirty_[kMaxThreads];
};

extern Runtime* g_rt;

// The per-access rules, inline: every memory hook runs them.

inline LineState& Runtime::begin_access(const void* addr) {
  check_doom();
  LineState& L = line_of(addr);
  if (PTO_UNLIKELY(L.freed)) ++g_mem.uaf_count;
  return L;
}

inline std::uint64_t Runtime::share_line(LineState& L, std::uintptr_t la) {
  if (L.sharers().test(cur)) return 0;
  L.sharers().set(cur);
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_miss(cur, me().clock, la);
  }
  return cfg.cost.coherence_miss;
}

inline std::uint64_t Runtime::own_line(LineState& L, std::uintptr_t la) {
  std::uint64_t miss = 0;
  if (L.sharers().any_other(cur, nwords)) {
    miss = cfg.cost.coherence_miss;
    if (PTO_UNLIKELY(telemetry::trace_on())) {
      telemetry::trace_miss(cur, me().clock, la);
    }
  }
  L.sharers().assign_single(cur, nwords);
  return miss;
}

inline void Runtime::requester_wins(LineState& L, std::uintptr_t la,
                                    bool write) {
  const bool batch = write && !doom_batch_;
  if (batch) begin_doom_batch();
  if (L.tx_writer != kNobody && L.tx_writer != cur) {
    doom(L.tx_writer, TX_ABORT_CONFLICT, la);
  }
  if (write) {
    // Each word of the reader set is read just before its victims are
    // doomed (for_each_other); dooming a victim clears only that victim's
    // own bits, so the scan never skips or repeats a reader.
    L.tx_readers().for_each_other(cur, nwords, [&](unsigned v) {
      doom(v, TX_ABORT_CONFLICT, la);
    });
  }
  if (batch) end_doom_batch();
}

std::uint64_t raw_read(const void* addr, unsigned size);
void raw_write(void* addr, unsigned size, std::uint64_t val);

}  // namespace pto::sim::internal
