// Fixed-capacity set of thread ids: kThreadWords words, one bit per tid.
// Every operation that must scan takes the *active* word count `nw` (derived
// from the run's thread count), so a run with <= 64 threads executes the old
// single-uint64_t mask sequence — same loads, same branches.
//
// The simulator's run-wide sets (the scheduler's and explorer's runnable
// mask) are ThreadSets. Its per-line sharer and tx-reader sets are not: they
// are sim::internal::LineSet (sim/runtime_internal.h), which keeps word 0
// inline in a 32-byte LineState and the other words in a block taken only
// once a tid >= 64 joins. A LineSet must mean exactly what a ThreadSet means
// at every word count, which tests/test_threadset.cpp checks op by op.
//
// Iteration order is ascending tid (per-word tzcnt, words low to high),
// matching the old `ctzll / clear-lowest` loops bit for bit.
#pragma once

#include <cstdint>

#include "common/defs.h"

namespace pto {

struct ThreadSet {
  std::uint64_t w[kThreadWords] = {};

  static std::uint64_t bit_of(unsigned tid) {
    return std::uint64_t{1} << (tid & 63);
  }
  static unsigned word_of(unsigned tid) { return tid >> 6; }

  bool test(unsigned tid) const { return (w[word_of(tid)] & bit_of(tid)) != 0; }
  void set(unsigned tid) { w[word_of(tid)] |= bit_of(tid); }
  void clear(unsigned tid) { w[word_of(tid)] &= ~bit_of(tid); }

  /// Zero the first `nw` words (the only ones a run of <= nw*64 threads can
  /// have populated since the last full reset).
  void reset(unsigned nw) {
    for (unsigned i = 0; i < nw; ++i) w[i] = 0;
  }

  /// The old `mask = bit(tid)` exclusive-take: only `tid` remains set.
  void assign_single(unsigned tid, unsigned nw) {
    reset(nw);
    set(tid);
  }

  bool empty(unsigned nw) const {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < nw; ++i) acc |= w[i];
    return acc == 0;
  }

  /// The old `mask & ~bit(tid)` test: any member besides `tid`?
  bool any_other(unsigned tid, unsigned nw) const {
    const unsigned wi = word_of(tid);
    std::uint64_t acc = w[wi] & ~bit_of(tid);
    for (unsigned i = 0; i < nw; ++i) {
      if (i != wi) acc |= w[i];
    }
    return acc != 0;
  }

  unsigned popcount(unsigned nw) const {
    unsigned n = 0;
    for (unsigned i = 0; i < nw; ++i) {
      n += static_cast<unsigned>(__builtin_popcountll(w[i]));
    }
    return n;
  }

  /// Lowest member; undefined when empty (callers assert non-empty).
  unsigned first(unsigned nw) const {
    for (unsigned i = 0; i < nw; ++i) {
      if (w[i] != 0) {
        return i * 64 + static_cast<unsigned>(__builtin_ctzll(w[i]));
      }
    }
    return kMaxThreads;
  }

  /// Members {0, ..., n-1}; words past the span are zeroed up to `nw`.
  void set_first_n(unsigned n, unsigned nw) {
    reset(nw);
    unsigned full = n >> 6;
    for (unsigned i = 0; i < full; ++i) w[i] = ~std::uint64_t{0};
    if ((n & 63) != 0) w[full] = (std::uint64_t{1} << (n & 63)) - 1;
  }

  /// Visit every member in ascending order. The callback must not mutate
  /// this set's membership for tids not yet visited in the current word —
  /// each word is snapshotted before iterating it (the doom() loops rely on
  /// exactly this snapshot-then-doom semantics).
  template <class F>
  void for_each(unsigned nw, F&& f) const {
    for (unsigned i = 0; i < nw; ++i) {
      std::uint64_t m = w[i];
      while (m != 0) {
        f(i * 64 + static_cast<unsigned>(__builtin_ctzll(m)));
        m &= m - 1;
      }
    }
  }

  /// Visit every member except `self`, ascending (the victims loops).
  template <class F>
  void for_each_other(unsigned self, unsigned nw, F&& f) const {
    const unsigned wi = word_of(self);
    for (unsigned i = 0; i < nw; ++i) {
      std::uint64_t m = w[i];
      if (i == wi) m &= ~bit_of(self);
      while (m != 0) {
        f(i * 64 + static_cast<unsigned>(__builtin_ctzll(m)));
        m &= m - 1;
      }
    }
  }
};

}  // namespace pto
