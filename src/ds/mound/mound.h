// Mound: an array-based tree of sorted lists implementing a concurrent
// min-priority queue (Liu & Spear, "Mounds: Array-Based Concurrent Priority
// Queues", ICPP 2012). The paper's §3.1 uses it to evaluate applying PTO
// *locally* to sub-operations: every multi-word step is a DCSS (insert) or a
// DCAS (moundify swap) built from the kcas substrate, and the PTO variant
// simply routes those through pto_dcss/pto_dcas with the paper's tuned
// retry value of 4 — the rest of the algorithm is untouched.
//
// Representation: a 1-indexed complete binary tree of words managed by kcas
// (so user payloads keep their low two bits zero):
//
//   word = [ counter:16 | LNode*:bits 6..47 | dirty:bit 2 | 00 ]
//
// Each node's list is sorted ascending from the head; the node's value is
// its head (or +inf when empty). Invariant: a *clean* node's value is >= its
// parent's value. extractMin pops the root head, marks the root dirty, and
// moundify() swaps smaller child lists upward (re-dirtying the child),
// recursively. A pop never proceeds past a dirty root: it helps moundify
// first, which is what keeps the root the global minimum.
//
// Inserts probe random leaves for one with value >= v, binary-search the
// root-to-leaf path for the highest node n with val(n) >= v >= val(parent),
// and push v with a DCSS that validates the parent word. List nodes are
// reclaimed through epochs; kcas descriptors are pooled (the paper notes
// Mound descriptors are reused, so allocation plays no role — Fig 5(b)).
#pragma once

#include <cstdint>
#include <optional>

#include "common/defs.h"
#include "core/prefix.h"
#include "kcas/kcas.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"

namespace pto {

template <class P>
class Mound {
 public:
  static constexpr PrefixPolicy kDcasPolicy{4};  // paper §4.2: retry = 4
  static constexpr unsigned kLeafProbes = 8;

  struct ThreadCtx {
    explicit ThreadCtx(Mound& m) : kctx(m.dom_) {}
    kcas::Ctx<P> kctx;
  };

  /// max_depth bounds capacity at 2^max_depth - 1 nodes' worth of lists.
  explicit Mound(unsigned max_depth = 15) : max_depth_(max_depth) {
    assert(max_depth >= 2 && max_depth <= 28);
    const std::size_t n = std::size_t{1} << max_depth_;
    nodes_ = static_cast<PaddedWord*>(
        P::alloc_bytes(sizeof(PaddedWord) * n));
    for (std::size_t i = 0; i < n; ++i) {
      ::new (&node_word(i)) PaddedWord();
      node_word(i).init(0);
    }
    depth_.init(2);
  }

  ~Mound() {
    const std::size_t n = std::size_t{1} << max_depth_;
    for (std::size_t i = 1; i < n; ++i) {
      LNode* l = lnode_of(node_word(i).load(std::memory_order_relaxed));
      while (l != nullptr) {
        LNode* nx = l->next;
        P::template destroy<LNode>(l);
        l = nx;
      }
    }
    P::free_bytes(nodes_, sizeof(PaddedWord) * n);
  }

  Mound(const Mound&) = delete;
  Mound& operator=(const Mound&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  /// Override the DCAS/DCSS transaction retry budget (paper default: 4).
  void set_dcas_policy(PrefixPolicy pol) { dcas_policy_ = pol; }

  void insert_lf(ThreadCtx& ctx, std::int32_t v) { insert(ctx, v, false); }
  void insert_pto(ThreadCtx& ctx, std::int32_t v) { insert(ctx, v, true); }

  std::optional<std::int32_t> extract_min_lf(ThreadCtx& ctx) {
    return extract_min(ctx, false);
  }
  std::optional<std::int32_t> extract_min_pto(ThreadCtx& ctx) {
    return extract_min(ctx, true);
  }

  /// Quiescent invariant: every clean node's value >= its parent's value,
  /// every list sorted ascending, dirty bits clear after drain... (dirty
  /// nodes may persist transiently; callers drain or moundify first).
  bool check_invariants() {
    unsigned d = depth_.load(std::memory_order_relaxed);
    for (std::size_t i = 2; i < (std::size_t{1} << d); ++i) {
      std::uint64_t w = node_word(i).load(std::memory_order_relaxed);
      std::uint64_t pw = node_word(i / 2).load(std::memory_order_relaxed);
      if (!is_dirty(w) && !is_dirty(pw) && value_of(w) < value_of(pw)) {
        return false;
      }
    }
    for (std::size_t i = 1; i < (std::size_t{1} << d); ++i) {
      LNode* l = lnode_of(node_word(i).load(std::memory_order_relaxed));
      while (l != nullptr && l->next != nullptr) {
        if (l->next->value < l->value) return false;
        l = l->next;
      }
    }
    return true;
  }

  std::size_t size_slow() {
    std::size_t n = 0;
    unsigned d = depth_.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < (std::size_t{1} << d); ++i) {
      for (LNode* l = lnode_of(node_word(i).load(std::memory_order_relaxed));
           l != nullptr; l = l->next) {
        ++n;
      }
    }
    return n;
  }

 private:
  using Word = kcas::Word<P>;
  /// One node word per cache line: packed sibling words would false-share
  /// and abort each other's DCAS/DCSS transactions.
  struct alignas(kCacheLine) PaddedWord {
    Word w;
  };
  Word& node_word(std::size_t i) const { return nodes_[i].w; }
  static constexpr std::int64_t kInf = INT64_MAX;
  static constexpr std::uint64_t kDirty = 4;
  static constexpr std::uint64_t kPtrMask = 0x0000FFFFFFFFFFC0ull;
  static constexpr unsigned kCtrShift = 48;

  /// List node. alignas(64): node words store the pointer in bits 6..47
  /// (kPtrMask), so the allocation must be cache-line aligned on every
  /// platform — the simulator's arena guarantees it, native `new` does not.
  struct alignas(kCacheLine) LNode {
    std::int32_t value;
    LNode* next;
  };

  static LNode* lnode_of(std::uint64_t w) {
    return reinterpret_cast<LNode*>(w & kPtrMask);
  }
  static bool is_dirty(std::uint64_t w) { return (w & kDirty) != 0; }
  static std::uint64_t pack(std::uint64_t old, LNode* list, bool dirty) {
    std::uint64_t ctr = ((old >> kCtrShift) + 1) & 0xFFFF;
    return (ctr << kCtrShift) |
           (reinterpret_cast<std::uint64_t>(list) & kPtrMask) |
           (dirty ? kDirty : 0);
  }
  /// Node value: head of the list, +inf when empty.
  static std::int64_t value_of(std::uint64_t w) {
    LNode* l = lnode_of(w);
    return l == nullptr ? kInf : l->value;
  }

  /// Read a node word, helping any in-flight kcas operation. Requires an
  /// epoch guard.
  std::uint64_t read_node(ThreadCtx& ctx, std::size_t i) {
    return kcas::read(ctx.kctx, node_word(i));
  }

  void insert(ThreadCtx& ctx, std::int32_t v, bool use_pto) {
    typename EpochDomain<P>::Guard g(ctx.kctx.epoch);
    LNode* ln = P::template make<LNode>();
    ln->value = v;
    for (;;) {
      unsigned d = depth_.load();
      std::size_t leaf = 0;
      std::uint64_t leaf_w = 0;
      bool found = false;
      // Randomized leaf probing (paper: "insertion entails a log-log-depth
      // traversal"; we keep the simpler log-depth binary search).
      for (unsigned probe = 0; probe < kLeafProbes; ++probe) {
        std::size_t lo = std::size_t{1} << (d - 1);
        std::size_t idx = lo + (P::rnd() & (lo - 1));
        std::uint64_t w = read_node(ctx, idx);
        if (value_of(w) >= v) {
          leaf = idx;
          leaf_w = w;
          found = true;
          break;
        }
      }
      if (!found) {
        // All probes were smaller than v: deepen the mound and retry.
        if (d < max_depth_) {
          std::uint32_t expect = d;
          depth_.compare_exchange_strong(expect, d + 1);
          continue;
        }
        // Bounded-depth overflow: insert v at its sorted position inside a
        // leaf list, copying the (strictly smaller) prefix persistently.
        // The head is unchanged, so no heap invariant is disturbed. The
        // unbounded Mound of the original paper grows instead; see
        // DESIGN.md §3.
        if (insert_sorted_at_leaf(ctx, d, v, ln)) return;
        continue;
      }
      // Binary search the root->leaf path for the highest insertion point.
      std::size_t n = leaf;
      std::uint64_t wn = leaf_w;
      for (unsigned lvl = 0; lvl + 1 < d; ++lvl) {
        std::size_t anc = leaf >> (d - 1 - lvl);
        std::uint64_t wa = read_node(ctx, anc);
        if (value_of(wa) >= v) {
          n = anc;
          wn = wa;
          break;
        }
      }
      ln->next = lnode_of(wn);
      std::uint64_t neww = pack(wn, ln, is_dirty(wn));
      bool ok;
      if (n == 1) {
        // The root has no parent: a single CAS suffices.
        std::uint64_t expect = wn;
        ok = node_word(1).compare_exchange_strong(expect, neww);
      } else {
        std::uint64_t wp = read_node(ctx, n / 2);
        if (value_of(wp) > v) continue;  // parent moved; retry
        ok = use_pto
                 ? kcas::pto_dcss<P>(ctx.kctx, node_word(n / 2), wp, node_word(n),
                                     wn, neww, dcas_policy_)
                 : kcas::dcss<P>(ctx.kctx, node_word(n / 2), wp, node_word(n), wn,
                                 neww);
      }
      if (ok) return;
    }
  }

  /// Overflow path: splice `ln` (value v) into a random leaf's list at its
  /// sorted position. Prefix nodes are copied (lists are immutable once
  /// published); the displaced prefix copies are epoch-retired on success.
  bool insert_sorted_at_leaf(ThreadCtx& ctx, unsigned d, std::int32_t v,
                             LNode* ln) {
    std::size_t lo = std::size_t{1} << (d - 1);
    std::size_t idx = lo + (P::rnd() & (lo - 1));
    std::uint64_t w = read_node(ctx, idx);
    LNode* src = lnode_of(w);
    // Copy the strictly-smaller prefix.
    LNode* new_head = nullptr;
    LNode** tail = &new_head;
    LNode* cur = src;
    while (cur != nullptr && cur->value < v) {
      LNode* c = P::template make<LNode>();
      c->value = cur->value;
      *tail = c;
      tail = &c->next;
      cur = cur->next;
    }
    *tail = ln;
    ln->next = cur;
    std::uint64_t neww = pack(w, new_head == nullptr ? ln : new_head,
                              is_dirty(w));
    // The head (and thus the parent invariant) is unchanged, so a plain
    // versioned CAS on the node word suffices — no DCSS needed.
    std::uint64_t expect = w;
    bool ok = node_word(idx).compare_exchange_strong(expect, neww);
    LNode* walk = (new_head == nullptr) ? nullptr : new_head;
    if (ok) {
      // Retire the displaced original prefix.
      for (LNode* o = src; o != nullptr && o != cur;) {
        LNode* nx = o->next;
        ctx.kctx.epoch.retire(o);
        o = nx;
      }
      return true;
    }
    // Never published: free the copies immediately.
    while (walk != nullptr && walk != ln) {
      LNode* nx = walk->next;
      P::template destroy<LNode>(walk);
      walk = nx;
    }
    return false;
  }

  std::optional<std::int32_t> extract_min(ThreadCtx& ctx, bool use_pto) {
    typename EpochDomain<P>::Guard g(ctx.kctx.epoch);
    for (;;) {
      std::uint64_t w = read_node(ctx, 1);
      if (is_dirty(w)) {
        moundify(ctx, 1, use_pto);
        continue;
      }
      LNode* head = lnode_of(w);
      if (head == nullptr) return std::nullopt;  // clean + empty = empty
      std::uint64_t neww = pack(w, head->next, /*dirty=*/true);
      std::uint64_t expect = w;
      if (node_word(1).compare_exchange_strong(expect, neww)) {
        std::int32_t v = head->value;
        ctx.kctx.epoch.retire(head);
        moundify(ctx, 1, use_pto);
        return v;
      }
    }
  }

  /// Restore the invariant at node i (paper: DCAS swaps the smaller child's
  /// list upward, re-dirtying the child, recursively).
  void moundify(ThreadCtx& ctx, std::size_t i, bool use_pto) {
    for (;;) {
      std::uint64_t w = read_node(ctx, i);
      if (!is_dirty(w)) return;
      unsigned d = depth_.load();
      if (i >= (std::size_t{1} << (d - 1))) {
        // Leaf (at the current depth): nothing below can violate.
        std::uint64_t expect = w;
        if (node_word(i).compare_exchange_strong(
                expect, pack(w, lnode_of(w), false))) {
          return;
        }
        continue;
      }
      // Children must be clean before their heads are comparable: a dirty
      // child's head may exceed values hidden in its own subtree, and
      // comparing against it could wrongly certify this node as the minimum
      // (caught by the pop-ordering tests). Help finish their chains first,
      // as the original algorithm requires.
      std::uint64_t wl = read_node(ctx, 2 * i);
      if (is_dirty(wl)) {
        moundify(ctx, 2 * i, use_pto);
        continue;
      }
      std::uint64_t wr = read_node(ctx, 2 * i + 1);
      if (is_dirty(wr)) {
        moundify(ctx, 2 * i + 1, use_pto);
        continue;
      }
      std::int64_t vl = value_of(wl);
      std::int64_t vr = value_of(wr);
      std::int64_t vi = value_of(w);
      std::size_t c = (vl <= vr) ? 2 * i : 2 * i + 1;
      std::uint64_t wc = (vl <= vr) ? wl : wr;
      if (std::min(vl, vr) < vi) {
        // Swap lists with the smaller child; the child inherits the dirt.
        std::uint64_t new_i = pack(w, lnode_of(wc), false);
        std::uint64_t new_c = pack(wc, lnode_of(w), true);
        bool ok = use_pto
                      ? kcas::pto_dcas<P>(ctx.kctx, node_word(i), w, new_i,
                                          node_word(c), wc, new_c,
                                          dcas_policy_)
                      : kcas::dcas<P>(ctx.kctx, node_word(i), w, new_i,
                                      node_word(c), wc, new_c);
        if (ok) {
          moundify(ctx, c, use_pto);
          return;
        }
      } else {
        std::uint64_t expect = w;
        if (node_word(i).compare_exchange_strong(
                expect, pack(w, lnode_of(w), false))) {
          return;
        }
      }
    }
  }

  PrefixPolicy dcas_policy_ = kDcasPolicy;
  unsigned max_depth_;
  PaddedWord* nodes_;  ///< 1-indexed; index 0 unused
  Atom<P, std::uint32_t> depth_;
  EpochDomain<P> dom_;
};

}  // namespace pto
