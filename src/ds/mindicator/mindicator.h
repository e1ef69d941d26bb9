// Mindicator: a static tree that maintains the minimum of the values
// announced by a set of threads (Liu, Luchangco & Spear, "Mindicators: A
// Scalable Approach to Quiescence", ICDCS 2013). Threads `arrive` with a
// value and later `depart`; `query` returns the minimum announced value (or
// kEmpty). Used by the paper as the simplest PTO case study (§3.1, Fig 2a).
//
// This implementation is a re-derivation of the SOSI structure rather than a
// line-by-line port (DESIGN.md §3): each node is a single 64-bit word packing
// a 32-bit version counter with a 32-bit value, and every operation makes two
// passes over its leaf-to-root path:
//
//   ascent  ("marking"):   versioned CAS installs the new per-node minimum,
//                          bumping the counter, up to the first node whose
//                          value is unaffected (which is still counter-bumped
//                          so racing recomputations observe the visit);
//   descent ("unmarking"): a second counter bump per visited node, walking
//                          back down to the leaf.
//
// Every visited node therefore costs two CASes (plus a double-checked
// child-pair read during depart's recomputation). This mirrors the original
// algorithm's mark/unmark increments and is exactly the redundancy PTO
// removes (paper §3.1): the PTO operation makes ONE pass, writes each node
// once with the counter advanced by two, and needs no double-checking — the
// transaction guarantees a consistent view.
//
// Variants:
//   *_lf   the lock-free baseline;
//   *_pto  prefix transaction (3 attempts, the paper's tuned value), falling
//          back to *_lf;
//   *_tle  transactional lock elision over the *sequential* tree (global
//          spinlock fallback) — the comparison baseline in Fig 2(a).
//
// The tree is static: no allocation, no reclamation (paper: "the tree is
// static and hence there is no memory allocation").
#pragma once

#include <cstdint>
#include <new>

#include "common/defs.h"
#include "core/prefix.h"
#include "platform/platform.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class Mindicator {
 public:
  static constexpr std::int32_t kEmpty = INT32_MAX;
  static constexpr PrefixPolicy kDefaultPolicy{3};  // paper §3.1: 3 retries

  /// `leaves` must be a power of two >= 2. Thread t uses leaf (t % leaves).
  explicit Mindicator(unsigned leaves = 64) : leaves_(leaves) {
    assert(leaves >= 2 && (leaves & (leaves - 1)) == 0);
    nodes_ = static_cast<PaddedWord*>(
        P::alloc_bytes(sizeof(PaddedWord) * 2 * leaves_));
    for (unsigned i = 0; i < 2 * leaves_; ++i) {
      ::new (&nodes_[i]) PaddedWord();
      node(i).init(pack(0, kEmpty));
    }
    lock_.init(0);
  }

  ~Mindicator() {
    for (unsigned i = 0; i < 2 * leaves_; ++i) nodes_[i].~PaddedWord();
    P::free_bytes(nodes_, sizeof(PaddedWord) * 2 * leaves_);
  }

  Mindicator(const Mindicator&) = delete;
  Mindicator& operator=(const Mindicator&) = delete;

  unsigned leaves() const { return leaves_; }

  /// Minimum currently-announced value, kEmpty if none. Wait-free: one load.
  std::int32_t query() const { return val(node(1).load()); }

  // -- lock-free baseline ---------------------------------------------------

  void arrive_lf(unsigned leaf, std::int32_t v) {
    assert(v < kEmpty);
    unsigned i = leaf_index(leaf);
    set_word(i, v);
    unsigned top = ascend_lf(i, v);
    descend_lf(top, i);
  }

  void depart_lf(unsigned leaf) {
    unsigned i = leaf_index(leaf);
    set_word(i, kEmpty);
    unsigned top = ascend_recompute_lf(i);
    descend_lf(top, i);
  }

  // -- PTO (paper §3.1) -----------------------------------------------------

  void arrive_pto(unsigned leaf, std::int32_t v,
                  PrefixPolicy pol = kDefaultPolicy) {
    assert(v < kEmpty);
    prefix<P>(
        pol,
        [&] {
          // One pass, one plain store per node, counter advanced by the two
          // increments at once, no downward traversal (paper §3.1).
          unsigned i = leaf_index(leaf);
          std::uint64_t w = node(i).load(std::memory_order_relaxed);
          node(i).store(pack(ctr(w) + 2, v), std::memory_order_relaxed);
          // pto-lint: bounded(log2 leaves; i halves every iteration)
          while (i > 1) {
            i >>= 1;
            w = node(i).load(std::memory_order_relaxed);
            std::int32_t nv = v < val(w) ? v : val(w);
            node(i).store(pack(ctr(w) + 2, nv), std::memory_order_relaxed);
            if (nv == val(w)) break;
          }
        },
        [&] { arrive_lf(leaf, v); }, PTO_TELEMETRY_SITE("mindicator.arrive"));
  }

  void depart_pto(unsigned leaf, PrefixPolicy pol = kDefaultPolicy) {
    prefix<P>(
        pol,
        [&] {
          unsigned i = leaf_index(leaf);
          std::uint64_t w = node(i).load(std::memory_order_relaxed);
          node(i).store(pack(ctr(w) + 2, kEmpty),
                          std::memory_order_relaxed);
          // pto-lint: bounded(log2 leaves; i halves every iteration)
          while (i > 1) {
            i >>= 1;
            // Children read once each: the transaction makes the pair
            // consistent without double-checking.
            std::int32_t l =
                val(node(2 * i).load(std::memory_order_relaxed));
            std::int32_t r =
                val(node(2 * i + 1).load(std::memory_order_relaxed));
            std::int32_t m = l < r ? l : r;
            w = node(i).load(std::memory_order_relaxed);
            node(i).store(pack(ctr(w) + 2, m), std::memory_order_relaxed);
            if (m == val(w)) break;
          }
        },
        [&] { depart_lf(leaf); }, PTO_TELEMETRY_SITE("mindicator.depart"));
  }

  // -- TLE baseline (Fig 2a) ------------------------------------------------

  void arrive_tle(unsigned leaf, std::int32_t v,
                  PrefixPolicy pol = kDefaultPolicy) {
    run_tle([&] { sequential_arrive(leaf, v); }, pol);
  }

  void depart_tle(unsigned leaf, PrefixPolicy pol = kDefaultPolicy) {
    run_tle([&] { sequential_depart(leaf); }, pol);
  }

  /// Quiescent invariant: every internal node's value equals the minimum of
  /// its children. Call only when no operations are in flight.
  bool check_invariants() const {
    for (unsigned i = 1; i < leaves_; ++i) {
      std::int32_t l = val(node(2 * i).load());
      std::int32_t r = val(node(2 * i + 1).load());
      if (val(node(i).load()) != (l < r ? l : r)) return false;
    }
    return true;
  }

 private:
  using Word = Atom<P, std::uint64_t>;
  /// One tree node per cache line: sibling nodes would otherwise share a
  /// line and turn into false-sharing transaction aborts under HTM (the
  /// original Mindicator's multi-field nodes are naturally line-sized).
  struct alignas(kCacheLine) PaddedWord {
    Word w;
  };
  Word& node(unsigned i) const { return nodes_[i].w; }

  static std::uint64_t pack(std::uint32_t c, std::int32_t v) {
    return (std::uint64_t{c} << 32) |
           static_cast<std::uint32_t>(v);
  }
  static std::uint32_t ctr(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }
  static std::int32_t val(std::uint64_t w) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
  }

  unsigned leaf_index(unsigned leaf) const {
    return leaves_ + (leaf & (leaves_ - 1));
  }

  /// Versioned overwrite of a leaf word (CAS loop; leaf may be shared when
  /// threads outnumber leaves).
  void set_word(unsigned i, std::int32_t v) {
    std::uint64_t w = node(i).load();
    for (;;) {
      if (node(i).compare_exchange_strong(w, pack(ctr(w) + 1, v))) return;
    }
  }

  /// Marking ascent for arrive: install min(value, v) with a counter bump at
  /// every visited node, stopping after the first node whose value is
  /// unchanged (its counter is still bumped so concurrent recomputations
  /// observe the visit — see the race discussion in tests). Returns the top
  /// visited index.
  unsigned ascend_lf(unsigned i, std::int32_t v) {
    while (i > 1) {
      i >>= 1;
      std::uint64_t w = node(i).load();
      for (;;) {
        std::int32_t nv = v < val(w) ? v : val(w);
        if (node(i).compare_exchange_strong(w, pack(ctr(w) + 1, nv))) {
          if (nv == val(w)) return i;  // value unchanged: ancestors unaffected
          break;
        }
      }
    }
    return 1;
  }

  /// Recomputation ascent for depart: each node takes min of its children,
  /// read as a double-checked consistent pair, then re-validated after the
  /// install — a child may have changed between the pair read and the CAS,
  /// and without the re-check a stale minimum could overwrite a fresher one
  /// (found by the simulator stress tests). This is precisely the
  /// double-checking redundancy that PTO's transactional snapshot removes
  /// (§2.3).
  unsigned ascend_recompute_lf(unsigned i) {
    while (i > 1) {
      i >>= 1;
      for (;;) {
        std::uint64_t lw = node(2 * i).load();
        std::uint64_t rw = node(2 * i + 1).load();
        if (node(2 * i).load() != lw) continue;  // double-check the pair
        std::int32_t m = val(lw) < val(rw) ? val(lw) : val(rw);
        std::uint64_t w = node(i).load();
        if (!node(i).compare_exchange_strong(w, pack(ctr(w) + 1, m))) {
          continue;
        }
        // Post-install validation: if the children moved meanwhile, redo.
        std::int32_t l2 = val(node(2 * i).load());
        std::int32_t r2 = val(node(2 * i + 1).load());
        if ((l2 < r2 ? l2 : r2) != m) continue;
        if (m == val(w)) return i;
        break;
      }
    }
    return 1;
  }

  /// Unmarking descent: second counter bump on each node of the path from
  /// `top` back to leaf index `i`.
  void descend_lf(unsigned top, unsigned leaf_i) {
    // Recover the path: ancestors of leaf_i from top down to the leaf.
    for (unsigned i = leaf_i; i >= top && i >= 1; i >>= 1) {
      std::uint64_t w = node(i).load();
      while (!node(i).compare_exchange_strong(w, pack(ctr(w) + 1, val(w)))) {
      }
      if (i == top) break;
    }
  }

  void sequential_arrive(unsigned leaf, std::int32_t v) {
    unsigned i = leaf_index(leaf);
    node(i).store(pack(0, v), std::memory_order_relaxed);
    // pto-lint: bounded(log2 leaves; i halves every iteration)
    while (i > 1) {
      i >>= 1;
      std::uint64_t w = node(i).load(std::memory_order_relaxed);
      std::int32_t nv = v < val(w) ? v : val(w);
      if (nv == val(w)) break;
      node(i).store(pack(0, nv), std::memory_order_relaxed);
    }
  }

  void sequential_depart(unsigned leaf) {
    unsigned i = leaf_index(leaf);
    node(i).store(pack(0, kEmpty), std::memory_order_relaxed);
    // pto-lint: bounded(log2 leaves; i halves every iteration)
    while (i > 1) {
      i >>= 1;
      std::int32_t l = val(node(2 * i).load(std::memory_order_relaxed));
      std::int32_t r = val(node(2 * i + 1).load(std::memory_order_relaxed));
      std::int32_t m = l < r ? l : r;
      std::uint64_t w = node(i).load(std::memory_order_relaxed);
      if (m == val(w)) break;
      node(i).store(pack(0, m), std::memory_order_relaxed);
    }
  }

  template <class Fn>
  void run_tle(Fn&& seq, PrefixPolicy pol) {
    prefix<P>(
        pol,
        [&] {
          // Lock subscription: reading the lock puts it in the read set, so
          // a fallback acquisition aborts all concurrent elided sections.
          if (lock_.load(std::memory_order_relaxed) != 0) {
            P::template tx_abort<TX_CODE_VALIDATION>();
          }
          seq();
        },
        [&] {
          std::uint32_t expect = 0;
          while (!lock_.compare_exchange_strong(expect, 1)) {
            expect = 0;
            P::pause();
          }
          seq();
          lock_.store(0, std::memory_order_seq_cst);
        },
        PTO_TELEMETRY_SITE("mindicator.tle"));
  }

  unsigned leaves_;
  PaddedWord* nodes_;  ///< 1-indexed binary tree; leaves at [L, 2L)
  Atom<P, std::uint32_t> lock_;
};

}  // namespace pto
