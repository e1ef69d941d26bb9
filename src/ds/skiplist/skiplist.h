// Lock-free skiplist set with marked next-pointers (Fraser's design as
// presented by Herlihy & Shavit), plus PTO-accelerated insert/remove
// (paper §3.1 "Skip Lists"): after a non-transactional search, a single
// prefix transaction validates the predecessor links and performs all
// level updates at once, replacing the per-level CAS sequences.
//
// Memory is reclaimed through epoch-based reclamation. A subtle interaction
// (remove retires a node whose upper levels a lagging insert can still link —
// "resurrection") is closed by the inserter's post-link check: if its node
// became marked during linking, it runs one more cleanup search (unlink())
// inside its own epoch guard to physically unlink every level before the
// node can be freed.
//
// Each node is allocated at the size of its own tower: a 16-byte header
// (key, toplevel) followed by exactly `toplevel` links (alloc_node/free_node
// over P::alloc_bytes/P::free_bytes); only head and tail carry all
// kMaxLevel. No path reads a link at or above a node's toplevel: a node is
// only ever reached at level l through a level-l link, so its tower is
// taller than l.
//
// Keys are int64; head/tail sentinels use the extreme values, so user keys
// must lie strictly in (INT64_MIN, INT64_MAX).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class SkipList {
 public:
  static constexpr int kMaxLevel = 16;
  static constexpr PrefixPolicy kDefaultPolicy{4};

  /// Header plus a tower of `toplevel` links, all zero (see alloc_node).
  struct Node {
    Node(std::int64_t k, int top) : key(k), toplevel(top) {
      for (int l = 0; l < top; ++l) ::new (&next[l]) Atom<P, std::uintptr_t>(0);
    }
    std::int64_t key;
    int toplevel;
    Atom<P, std::uintptr_t> next[];  // toplevel entries
  };

  /// Per-thread context: the epoch handle.
  struct ThreadCtx {
    explicit ThreadCtx(SkipList& s) : epoch(s.dom_.register_thread()) {}
    typename EpochDomain<P>::Handle epoch;
  };

  SkipList() {
    head_ = alloc_node(INT64_MIN, kMaxLevel);
    tail_ = alloc_node(INT64_MAX, kMaxLevel);
    for (int l = 0; l < kMaxLevel; ++l) head_->next[l].init(word(tail_));
  }

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = ptr(n->next[0].load(std::memory_order_relaxed));
      free_node(n);
      n = nx;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  // -- wait-free-traversal lookup (shared by all variants) ------------------

  bool contains(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* pred = head_;
    Node* curr = nullptr;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      curr = ptr(pred->next[lvl].load());
      for (;;) {
        std::uintptr_t sw = curr->next[lvl].load();
        while (is_marked(sw)) {  // skip logically deleted nodes
          curr = ptr(sw);
          sw = curr->next[lvl].load();
        }
        if (curr->key < key) {
          pred = curr;
          curr = ptr(sw);
        } else {
          break;
        }
      }
    }
    return curr->key == key && !is_marked(curr->next[0].load());
  }

  // -- lock-free baseline ----------------------------------------------------

  bool insert_lf(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* n = nullptr;
    bool ok = insert_impl(ctx, key, &n);
    if (!ok && n != nullptr) free_node(n);
    return ok;
  }

  bool remove_lf(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    return remove_impl(ctx, key);
  }

  // -- PTO (paper §3.1) -------------------------------------------------------

  bool insert_pto(ThreadCtx& ctx, std::int64_t key,
                  PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    Node* n = nullptr;
    for (int a = 0; a < pol.attempts; ++a) {
      if (find(ctx, key, preds, succs)) {
        if (n != nullptr) free_node(n);
        return false;
      }
      if (n == nullptr) n = alloc_node(key, random_level());
      const int top = n->toplevel;
      // One transaction validates every predecessor link and performs all
      // the level insertions at once.
      int r = prefix<P>(
          1,
          [&]() -> int {
            for (int l = 0; l < top; ++l) {
              if (preds[l]->next[l].load(std::memory_order_relaxed) !=
                  word(succs[l])) {
                P::template tx_abort<TX_CODE_VALIDATION>();
              }
            }
            for (int l = 0; l < top; ++l) {
              n->next[l].store(word(succs[l]), std::memory_order_relaxed);
            }
            for (int l = 0; l < top; ++l) {
              preds[l]->next[l].store(word(n), std::memory_order_relaxed);
            }
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("skiplist.insert"));
      if (r == 1) return true;
    }
    // Lock-free fallback, reusing the already-allocated node.
    bool ok = insert_impl(ctx, key, &n);
    if (!ok && n != nullptr) free_node(n);
    return ok;
  }

  bool remove_pto(ThreadCtx& ctx, std::int64_t key,
                  PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (int a = 0; a < pol.attempts; ++a) {
      if (!find(ctx, key, preds, succs)) return false;
      Node* victim = succs[0];
      const int top = victim->toplevel;
      // One transaction marks every level and unlinks the node, replacing
      // the top-down CAS marking sequence plus the cleanup search.
      int r = prefix<P>(
          1,
          [&]() -> int {
            std::uintptr_t succ_words[kMaxLevel];
            for (int l = 0; l < top; ++l) {
              std::uintptr_t sw =
                  victim->next[l].load(std::memory_order_relaxed);
              if (is_marked(sw)) {
                // Concurrent removal in progress: bottom level marked means
                // the victim is already logically gone.
                if (l == 0) return 2;
                P::template tx_abort<TX_CODE_HELPING>();
              }
              if (preds[l]->next[l].load(std::memory_order_relaxed) !=
                  word(victim)) {
                P::template tx_abort<TX_CODE_VALIDATION>();
              }
              succ_words[l] = sw;
            }
            for (int l = 0; l < top; ++l) {
              victim->next[l].store(mark(succ_words[l]),
                                    std::memory_order_relaxed);
              preds[l]->next[l].store(succ_words[l],
                                      std::memory_order_relaxed);
            }
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("skiplist.remove"));
      if (r == 1) {
        retire(ctx, victim);
        return true;
      }
      if (r == 2) return false;
    }
    return remove_impl(ctx, key);
  }

  /// Quiescent check: walk level 0 and verify sorted unique keys and that
  /// every upper-level list is a sublist of level 0.
  bool check_invariants() {
    Node* n = ptr(head_->next[0].load());
    std::int64_t last = INT64_MIN;
    while (n != tail_) {
      if (n->key <= last || is_marked(n->next[0].load())) return false;
      last = n->key;
      n = ptr(n->next[0].load());
    }
    for (int l = 1; l < kMaxLevel; ++l) {
      Node* u = ptr(head_->next[l].load());
      Node* b = ptr(head_->next[0].load());
      while (u != tail_) {
        while (b != tail_ && b != u) b = ptr(b->next[0].load());
        if (b == tail_) return false;  // upper node not on the bottom list
        u = ptr(u->next[l].load());
      }
    }
    return true;
  }

  std::size_t size_slow() {
    std::size_t n = 0;
    for (Node* p = ptr(head_->next[0].load()); p != tail_;
         p = ptr(p->next[0].load())) {
      ++n;
    }
    return n;
  }

 protected:
  // -- shared internals (also used by SkipQueue) -----------------------------

  static std::uintptr_t word(Node* n) {
    return reinterpret_cast<std::uintptr_t>(n);
  }
  static Node* ptr(std::uintptr_t w) {
    return reinterpret_cast<Node*>(w & ~std::uintptr_t{1});
  }
  static bool is_marked(std::uintptr_t w) { return (w & 1) != 0; }
  static std::uintptr_t mark(std::uintptr_t w) { return w | 1; }
  static std::uintptr_t strip(std::uintptr_t w) { return w & ~std::uintptr_t{1}; }

  /// Tower height: one plus the trailing one bits of a draw, capped.
  static int random_level() {
    int lvl = 1;
    std::uint64_t r = P::rnd();
    while ((r & 1) != 0 && lvl < kMaxLevel) {
      ++lvl;
      r >>= 1;
    }
    return lvl;
  }

  static std::size_t node_bytes(int toplevel) {
    return sizeof(Node) +
           static_cast<std::size_t>(toplevel) * sizeof(Atom<P, std::uintptr_t>);
  }

  /// Every node is made here and given back through free_node(), at the
  /// size of its own tower.
  static Node* alloc_node(std::int64_t key, int toplevel) {
    return ::new (P::alloc_bytes(node_bytes(toplevel))) Node(key, toplevel);
  }

  static void free_node(Node* n) { P::free_bytes(n, node_bytes(n->toplevel)); }

  /// Free `n` through free_node() once no guard can still reach it.
  static void retire(ThreadCtx& ctx, Node* n) {
    ctx.epoch.retire_custom(
        n, [](void* p, void*) { free_node(static_cast<Node*>(p)); }, nullptr);
  }

  /// Harris-style search: returns whether a node with `key` is present in
  /// the bottom list; fills preds/succs at every level; physically unlinks
  /// marked nodes encountered on the way. Caller holds an epoch guard.
  /// With `past_equal`, the walk also steps over unmarked nodes whose key
  /// equals `key` (see unlink()).
  bool find(ThreadCtx& ctx, std::int64_t key, Node** preds, Node** succs,
            bool past_equal = false) {
    (void)ctx;
  retry:
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      Node* curr = ptr(pred->next[lvl].load());
      for (;;) {
        std::uintptr_t sw = curr->next[lvl].load();
        while (is_marked(sw)) {
          std::uintptr_t expect = word(curr);
          if (!pred->next[lvl].compare_exchange_strong(expect, strip(sw))) {
            goto retry;
          }
          curr = ptr(strip(sw));
          sw = curr->next[lvl].load();
        }
        if (curr->key < key || (past_equal && curr->key == key)) {
          pred = curr;
          curr = ptr(sw);
        } else {
          break;
        }
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
    }
    return succs[0]->key == key;
  }

  /// Cleanup search for a marked node with `key`: physically unlink it at
  /// every level before it is retired. An inserter whose search passed the
  /// upper levels before the mark can link its new same-key node in front
  /// of the marked one there (from stale preds/succs), and a plain find()
  /// stops at that new node; walking past unmarked same-key nodes reaches
  /// and snips the marked one behind it.
  void unlink(ThreadCtx& ctx, std::int64_t key) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(ctx, key, preds, succs, true);
  }

  /// Lock-free insert; *node (allocated by caller or lazily here) is consumed
  /// on success. Returns false if the key is already present.
  bool insert_impl(ThreadCtx& ctx, std::int64_t key, Node** node) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      if (find(ctx, key, preds, succs)) return false;
      Node* n = *node;
      if (n == nullptr) {
        n = alloc_node(key, random_level());
        *node = n;
      }
      const int top = n->toplevel;
      for (int l = 0; l < top; ++l) {
        n->next[l].store(word(succs[l]), std::memory_order_relaxed);
      }
      std::uintptr_t expect = word(succs[0]);
      if (!preds[0]->next[0].compare_exchange_strong(expect, word(n))) {
        continue;  // bottom-level contention: re-search
      }
      // Link the upper levels best-effort.
      for (int l = 1; l < top; ++l) {
        for (;;) {
          std::uintptr_t nw = n->next[l].load();
          if (is_marked(nw)) goto linked;  // being removed already
          if (ptr(nw) != succs[l]) {
            // Refresh our node's forward pointer before exposing it.
            if (!n->next[l].compare_exchange_strong(nw, word(succs[l]))) {
              continue;
            }
          }
          expect = word(succs[l]);
          if (preds[l]->next[l].compare_exchange_strong(expect, word(n))) {
            break;
          }
          find(ctx, key, preds, succs);
          if (succs[0] != n) goto linked;  // node removed concurrently
        }
      }
    linked:
      // Anti-resurrection pass: if a concurrent remove marked us while we
      // were linking upper levels, physically unlink everything now — inside
      // our guard, before the remover's retirement can mature.
      if (is_marked(n->next[0].load())) unlink(ctx, key);
      *node = nullptr;  // consumed
      return true;
    }
  }

  /// Lock-free remove. Returns false if not present (or lost the race).
  bool remove_impl(ThreadCtx& ctx, std::int64_t key) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(ctx, key, preds, succs)) return false;
    Node* victim = succs[0];
    return remove_node(ctx, key, victim);
  }

  /// Mark `victim` top-down; the winner of the bottom-level mark unlinks and
  /// retires it. Returns whether this thread was the logical remover.
  bool remove_node(ThreadCtx& ctx, std::int64_t key, Node* victim) {
    for (int l = victim->toplevel - 1; l >= 1; --l) {
      std::uintptr_t sw = victim->next[l].load();
      while (!is_marked(sw)) {
        victim->next[l].compare_exchange_strong(sw, mark(sw));
      }
    }
    std::uintptr_t sw = victim->next[0].load();
    for (;;) {
      if (is_marked(sw)) return false;  // someone else removed it
      if (victim->next[0].compare_exchange_strong(sw, mark(sw))) {
        unlink(ctx, key);  // physical unlink of all levels
        retire(ctx, victim);
        return true;
      }
    }
  }

  EpochDomain<P> dom_;
  Node* head_;
  Node* tail_;
};

}  // namespace pto
