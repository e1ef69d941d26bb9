// Generic Transactional Lock Elision (Rajwar & Goodman [40]; Dice et al.
// [7]) — the technique the paper uses as its comparison baseline in
// Fig 2(a): a sequential data structure protected by one global lock, where
// critical sections first attempt to run as a hardware transaction that
// merely *subscribes* to the lock (reads it and aborts if held).
//
// The contrast with PTO is the fallback: TLE's is a lock (serializing, and
// subject to the lemming effect — one abort convoy degrades everyone), while
// PTO's is the original lock-free algorithm. The paper's §6 discussion of
// lazy-subscription pitfalls is moot here: we subscribe eagerly, first thing
// in the transaction.
//
// The wrapped sequential structure must perform all shared accesses through
// Atom<P, T> (so the simulator can track conflicts and roll back aborted
// transactions) and must be written for single-threaded execution — the
// lock/transaction provides all isolation.
#pragma once

#include <cstdint>

#include "core/prefix.h"
#include "platform/platform.h"
#include "telemetry/registry.h"

namespace pto {

template <class P, class Seq>
class TLE {
 public:
  static constexpr PrefixPolicy kDefaultPolicy{3};

  template <class... A>
  explicit TLE(A&&... args) : seq_(static_cast<A&&>(args)...) {
    lock_.init(0);
  }

  /// Run fn(sequential_structure) atomically: elided first, locked fallback.
  template <class Fn>
  auto execute(Fn&& fn, PrefixPolicy pol = kDefaultPolicy)
      -> decltype(fn(*static_cast<Seq*>(nullptr))) {
    // TLE runs *unmodified* sequential code under elision -- whatever fn
    // allocates, it allocates inside the critical section. That is the
    // documented conflict-and-capacity hazard the Fig 2 baseline exists to
    // measure (see SeqHashSet::insert), not a discipline violation to fix,
    // so the allocation check is suppressed for this one site.
    // pto-analyze: allow(allocation)
    return prefix<P>(
        pol,
        [&] {
          // Eager lock subscription: the lock word joins the read set, so a
          // fallback acquisition aborts every elided section immediately.
          if (lock_.load(std::memory_order_relaxed) != 0) {
            P::template tx_abort<TX_CODE_VALIDATION>();
          }
          return fn(seq_);
        },
        [&] {
          std::uint32_t expect = 0;
          while (!lock_.compare_exchange_strong(expect, 1)) {
            expect = 0;
            P::pause();
          }
          if constexpr (std::is_void_v<decltype(fn(seq_))>) {
            fn(seq_);
            lock_.store(0);
            return;
          } else {
            auto r = fn(seq_);
            lock_.store(0);
            return r;
          }
        },
        PTO_TELEMETRY_SITE("tle.execute"));
  }

  /// Unsynchronized access for setup/teardown/inspection at quiescence.
  Seq& unsafe_seq() { return seq_; }

 private:
  Seq seq_;
  Atom<P, std::uint32_t> lock_;
};

// ---------------------------------------------------------------------------
// A sequential chaining hash set over instrumented atomics, suitable for
// wrapping in TLE<P, SeqHashSet<P>>.
// ---------------------------------------------------------------------------

template <class P>
class SeqHashSet {
 public:
  explicit SeqHashSet(std::uint32_t buckets = 1024) : len_(buckets) {
    assert((buckets & (buckets - 1)) == 0);
    table_ = static_cast<Atom<P, Node*>*>(
        P::alloc_bytes(sizeof(Atom<P, Node*>) * len_));
    for (std::uint32_t i = 0; i < len_; ++i) {
      ::new (&table_[i]) Atom<P, Node*>();
      table_[i].init(nullptr);
    }
  }

  ~SeqHashSet() {
    collect_garbage_at_quiescence();
    for (std::uint32_t i = 0; i < len_; ++i) {
      Node* n = table_[i].load(std::memory_order_relaxed);
      while (n != nullptr) {
        Node* nx = n->next.load(std::memory_order_relaxed);
        P::template destroy<Node>(n);
        n = nx;
      }
    }
    P::free_bytes(table_, sizeof(Atom<P, Node*>) * len_);
  }

  SeqHashSet(const SeqHashSet&) = delete;
  SeqHashSet& operator=(const SeqHashSet&) = delete;

  bool contains(std::int64_t key) {
    for (Node* n = bucket(key).load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) return true;
    }
    return false;
  }

  /// NOTE: called under TLE, allocation happens inside the critical section
  /// (transaction or lock) — the classic TLE conflict-and-capacity hazard
  /// that PTO's pre-allocation discipline avoids.
  bool insert(std::int64_t key) {
    auto& b = bucket(key);
    for (Node* n = b.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) return false;
    }
    Node* n = P::template make<Node>();
    n->key = key;
    n->next.init(b.load(std::memory_order_relaxed));
    b.store(n, std::memory_order_relaxed);
    return true;
  }

  bool remove(std::int64_t key) {
    auto& b = bucket(key);
    Node* prev = nullptr;
    for (Node* n = b.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) {
        Node* nx = n->next.load(std::memory_order_relaxed);
        if (prev == nullptr) {
          b.store(nx, std::memory_order_relaxed);
        } else {
          prev->next.store(nx, std::memory_order_relaxed);
        }
        // Freeing inside the critical section is unsafe under elision (the
        // free would abort concurrent elided readers, and the memory could
        // be recycled under a lock-path reader). Chain the node into a
        // garbage list instead — safe: TLE critical sections are fully
        // isolated, so no reader holds an unlinked node across one.
        n->next.store(garbage_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        garbage_.store(n, std::memory_order_relaxed);
        return true;
      }
      prev = n;
    }
    return false;
  }

  /// Drain the garbage chain. Call at quiescence (no operation in flight).
  void collect_garbage_at_quiescence() {
    Node* n = garbage_.load(std::memory_order_relaxed);
    garbage_.store(nullptr, std::memory_order_relaxed);
    while (n != nullptr) {
      Node* nx = n->next.load(std::memory_order_relaxed);
      P::template destroy<Node>(n);
      n = nx;
    }
  }

  std::size_t size_slow() {
    std::size_t c = 0;
    for (std::uint32_t i = 0; i < len_; ++i) {
      for (Node* n = table_[i].load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        ++c;
      }
    }
    return c;
  }

 private:
  struct Node {
    std::int64_t key;
    Atom<P, Node*> next;
  };

  Atom<P, Node*>& bucket(std::int64_t key) {
    auto z = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    z ^= z >> 29;
    return table_[z & (len_ - 1)];
  }

  std::uint32_t len_;
  Atom<P, Node*>* table_;
  Atom<P, Node*> garbage_{};
};

}  // namespace pto
