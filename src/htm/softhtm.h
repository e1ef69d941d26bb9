// SoftHTM: a software stand-in for best-effort hardware transactional memory,
// used on machines without working Intel TSX.
//
// Design: a word-based STM over a fixed table of kStripes 64-bit versioned
// locks. Every shared word maps to the lock of its 64-byte line (the line
// address is hashed into the table), so conflicts are detected at cache-line
// granularity, as on RTM. A lock word holds an even version while it is free
// and version + 1 while a writer owns it.
//
// Transactions keep a redo log in fixed-capacity arrays. Each read logs
// (stripe, version) and re-validates the whole read set, so the body never
// acts on an inconsistent snapshot (opacity). That costs time quadratic in
// the read set, which kReadCapacity bounds; most prefix transactions read a
// few stripes. Writes are buffered. Commit try-locks the write stripes (a
// busy stripe aborts the attempt, nothing waits), validates the reads,
// writes back and releases each stripe at version + 2. A read-only
// transaction is consistent as of its last read and commits with no further
// work. Overflowing either log aborts with TX_ABORT_CAPACITY, like a
// hardware capacity abort; the bounded sets keep the descriptor
// allocation-free and every scan short.
//
// Strong atomicity: the paper's PTO technique requires that transactions and
// *non-transactional* lock-free code interoperate (Theorem 2). SoftHTM routes
// every non-transactional access to a shared `std::atomic` through accessors
// that respect the same locks: a load is a seqlock read of its own stripe,
// and a store, CAS or fetch-add holds its own stripe for that one access.
// Threads working on different lines touch no common word, so the backend
// scales with threads. Two caveats remain. A lock holder that is preempted
// stalls every access to its stripes, which technically weakens
// lock-freedom (DESIGN.md §2). And plain (non-atomic) fields read inside a
// transaction are not logged, so a node freed and reused during an attempt
// is not detected the way hardware detects it: strongly_atomic() is false
// for this backend, and data structures keep their epoch guards around
// attempts.
//
// Restrictions (same as real RTM): code inside a transaction must be
// trivially unwindable — aborts longjmp to the checkpoint installed by
// pto::prefix(), skipping destructors.
#pragma once

#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/bits.h"
#include "common/defs.h"
#include "htm/txcode.h"

namespace pto::softhtm {

/// Versioned locks in the stripe table: 2^16 words, 512 KiB.
inline constexpr unsigned kStripeBits = 16;
inline constexpr std::size_t kStripes = std::size_t{1} << kStripeBits;
/// Distinct stripes one transaction may read, and words it may write.
inline constexpr unsigned kReadCapacity = 512;
inline constexpr unsigned kWriteCapacity = 128;

using Stripe = std::atomic<std::uint64_t>;
using WriteFn = void (*)(void*, std::uint64_t);

struct ReadEntry {
  const Stripe* stripe;
  std::uint64_t version;  ///< even version the read was validated against
};

struct WriteEntry {
  void* obj;  ///< the std::atomic<T> written
  std::uint64_t val;
  WriteFn wr;  ///< typed write-back for obj
  Stripe* stripe;
  /// Commit only: whether this entry took its stripe's lock (an earlier
  /// entry on the same stripe already holds it otherwise), and the version
  /// the lock was taken at.
  bool owner;
  std::uint64_t version;
};

/// Per-thread transaction descriptor. Trivially constructible, so the
/// thread-local instance needs no dynamic initialization.
struct Tx {
  bool active;
  int depth;  ///< flat nesting depth beyond the outermost begin
  unsigned nreads;
  unsigned nwrites;
  ReadEntry reads[kReadCapacity];
  WriteEntry writes[kWriteCapacity];
  std::jmp_buf env;  ///< abort checkpoint, armed by pto::prefix()
};

namespace detail {
extern Stripe g_stripes[kStripes];
extern constinit thread_local Tx t_tx;
}  // namespace detail

inline Tx& tls_tx() { return detail::t_tx; }

/// The lock guarding the 64-byte line that holds `p` (Fibonacci hashing of
/// the line address spreads neighbouring lines over the table).
inline Stripe& stripe_of(const void* p) {
  const auto line = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(p) / kCacheLine);
  return detail::g_stripes[(line * 0x9E3779B97F4A7C15ull) >>
                           (64 - kStripeBits)];
}

/// Begin a transaction (or nest into the active one). Returns TX_STARTED.
/// The caller must have armed tls_tx().env with setjmp *before* calling.
unsigned begin();

/// Commit the innermost begin; the outermost commit validates and writes back.
void commit();

/// Abort the active transaction: discard buffered state and longjmp to the
/// checkpoint with `cause`.
[[noreturn]] void abort_tx(unsigned cause, unsigned char user_code);

inline bool in_tx() { return detail::t_tx.active; }

/// User payload of the last explicit abort on this thread.
unsigned char last_user_code();

namespace detail {

template <class T>
constexpr void check_type() {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "SoftHTM atomics require trivially copyable T of <= 8 bytes");
}

template <class T>
void erased_write(void* p, std::uint64_t v) {
  static_cast<std::atomic<T>*>(p)->store(::pto::narrow<T>(v),
                                         std::memory_order_release);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Log a read of `s` at even version `v` and re-validate the whole read
/// set; aborts with TX_ABORT_CONFLICT or TX_ABORT_CAPACITY.
void log_read(Tx& tx, const Stripe& s, std::uint64_t v);

/// Take `s` for one non-transactional write (even -> odd); returns the
/// version it was taken at. Spins while another writer holds it.
inline std::uint64_t lock_stripe(Stripe& s) {
  std::uint64_t v = s.load(std::memory_order_relaxed);
  for (;;) {
    if ((v & 1) == 0 &&
        s.compare_exchange_weak(v, v + 1, std::memory_order_seq_cst,
                                std::memory_order_relaxed)) {
      return v;
    }
    cpu_relax();
    v = s.load(std::memory_order_relaxed);
  }
}

/// Seqlock read of `a` under its stripe `s`: returns the value and stores
/// the even version it is consistent with in `version`.
template <class T>
T stable_read(const std::atomic<T>& a, const Stripe& s,
              std::uint64_t& version) {
  for (;;) {
    const std::uint64_t v1 = s.load(std::memory_order_seq_cst);
    if ((v1 & 1) == 0) {
      const T v = a.load(std::memory_order_acquire);
      // The acquire load above keeps this re-read after the data read.
      if (s.load(std::memory_order_relaxed) == v1) {
        version = v1;
        return v;
      }
    }
    cpu_relax();
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Transactional accessors
// ---------------------------------------------------------------------------

// Out of line on purpose: inlined into every NativePlatform load site,
// tx_load cost kv-skip-zipf ops_s_1t x0.78-0.86 (4-vCPU VM, SoftHTM).
template <class T>
PTO_NOINLINE T tx_load(const std::atomic<T>& a) {
  detail::check_type<T>();
  Tx& tx = detail::t_tx;
  // Read-own-writes: the write log holds one entry per address.
  for (unsigned i = 0; i < tx.nwrites; ++i) {
    if (tx.writes[i].obj == &a) return ::pto::narrow<T>(tx.writes[i].val);
  }
  const Stripe& s = stripe_of(&a);
  std::uint64_t version;
  const T v = detail::stable_read(a, s, version);
  detail::log_read(tx, s, version);
  return v;
}

template <class T>
PTO_NOINLINE void tx_store(std::atomic<T>& a, T v) {
  detail::check_type<T>();
  Tx& tx = detail::t_tx;
  for (unsigned i = 0; i < tx.nwrites; ++i) {
    if (tx.writes[i].obj == &a) {
      tx.writes[i].val = ::pto::widen(v);
      return;
    }
  }
  if (PTO_UNLIKELY(tx.nwrites == kWriteCapacity)) {
    abort_tx(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  WriteEntry& w = tx.writes[tx.nwrites++];
  w.obj = &a;
  w.val = ::pto::widen(v);
  w.wr = &detail::erased_write<T>;
  w.stripe = &stripe_of(&a);
}

// ---------------------------------------------------------------------------
// Strongly-atomic non-transactional accessors
// ---------------------------------------------------------------------------
//
// Writers hold the stripe (a seq_cst CAS) around one access and publish the
// data with a release store before releasing the stripe with another, so a
// seqlock reader whose acquire load sees the new value also sees the stripe
// taken. A failed CAS writes nothing and releases the stripe at its old
// version.

template <class T>
T nt_load(const std::atomic<T>& a) {
  detail::check_type<T>();
  std::uint64_t version;
  return detail::stable_read(a, stripe_of(&a), version);
}

template <class T>
void nt_store(std::atomic<T>& a, T v) {
  detail::check_type<T>();
  Stripe& s = stripe_of(&a);
  const std::uint64_t ver = detail::lock_stripe(s);
  a.store(v, std::memory_order_release);
  s.store(ver + 2, std::memory_order_release);
}

template <class T>
bool nt_cas(std::atomic<T>& a, T& expected, T desired) {
  detail::check_type<T>();
  Stripe& s = stripe_of(&a);
  const std::uint64_t ver = detail::lock_stripe(s);
  // Every writer of `a` holds `s`, so the relaxed load sees the latest value.
  const T cur = a.load(std::memory_order_relaxed);
  if (::pto::widen(cur) != ::pto::widen(expected)) {
    s.store(ver, std::memory_order_release);
    expected = cur;
    return false;
  }
  a.store(desired, std::memory_order_release);
  s.store(ver + 2, std::memory_order_release);
  return true;
}

template <class T>
T nt_fetch_add(std::atomic<T>& a, T delta) {
  detail::check_type<T>();
  Stripe& s = stripe_of(&a);
  const std::uint64_t ver = detail::lock_stripe(s);
  const T old = a.load(std::memory_order_relaxed);
  a.store(static_cast<T>(old + delta), std::memory_order_release);
  s.store(ver + 2, std::memory_order_release);
  return old;
}

}  // namespace pto::softhtm
