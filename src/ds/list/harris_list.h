// Lock-free sorted linked-list set (Harris, "A Pragmatic Implementation of
// Non-Blocking Linked Lists", DISC 2001 — the paper's reference [14], whose
// mark-bit technique it singles out as an "unused bits embedded in the data
// fields" intermediate state, §2.3).
//
// PTO application follows the paper's recipe for search structures (§2.3,
// "many search data structures employ a search phase, followed by an update
// phase that performs its writes after validating selected locations"):
// search non-transactionally, then one prefix transaction validates
// pred->next and performs the link (insert) or the mark+unlink (remove) —
// replacing the CAS (insert) or the two-CAS mark/unlink dance (remove).
// Lookups can run entirely inside a transaction, eliding the epoch guard.
//
// This structure is not in the paper's evaluation; it is included as the
// canonical "simple application" of the methodology and is exercised by the
// abl_list ablation bench.
#pragma once

#include <cstdint>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class HarrisList {
 public:
  static constexpr PrefixPolicy kDefaultPolicy{4};

  struct Node {
    std::int64_t key;
    Atom<P, std::uintptr_t> next;  // mark bit = bit 0
  };

  struct ThreadCtx {
    explicit ThreadCtx(HarrisList& l) : epoch(l.dom_.register_thread()) {}
    typename EpochDomain<P>::Handle epoch;
  };

  HarrisList() {
    head_ = P::template make<Node>();
    tail_ = P::template make<Node>();
    head_->key = INT64_MIN;
    tail_->key = INT64_MAX;
    head_->next.init(word(tail_));
    tail_->next.init(0);
  }

  ~HarrisList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = ptr(n->next.load(std::memory_order_relaxed));
      P::template destroy<Node>(n);
      n = nx;
    }
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  // -- lookups ---------------------------------------------------------------

  bool contains_lf(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    return contains_walk(key);
  }

  /// PTO lookup: the transaction subsumes the epoch guard (§5).
  bool contains_pto(ThreadCtx& ctx, std::int64_t key,
                    PrefixPolicy pol = kDefaultPolicy) {
    if (!P::strongly_atomic()) return contains_lf(ctx, key);
    return prefix<P>(
        pol, [&]() -> bool { return contains_walk(key); },
        [&]() -> bool { return contains_lf(ctx, key); },
        PTO_TELEMETRY_SITE("list.lookup"));
  }

  // -- lock-free baseline (Harris) ---------------------------------------------

  bool insert_lf(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* n = nullptr;
    bool ok = insert_impl(ctx, key, &n);
    if (!ok && n != nullptr) P::template destroy<Node>(n);
    return ok;
  }

  bool remove_lf(ThreadCtx& ctx, std::int64_t key) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    return remove_impl(ctx, key);
  }

  // -- PTO ---------------------------------------------------------------------

  bool insert_pto(ThreadCtx& ctx, std::int64_t key,
                  PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* n = nullptr;
    for (int a = 0; a < pol.attempts; ++a) {
      Node* pred;
      Node* curr;
      if (search(ctx, key, &pred, &curr)) {
        if (n != nullptr) P::template destroy<Node>(n);
        return false;
      }
      if (n == nullptr) {
        n = P::template make<Node>();
        n->key = key;
        n->next.init(0);
      }
      int r = prefix<P>(
          1,
          [&]() -> int {
            if (pred->next.load(std::memory_order_relaxed) != word(curr)) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            n->next.store(word(curr), std::memory_order_relaxed);
            pred->next.store(word(n));
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("list.insert"));
      if (r == 1) return true;
    }
    bool ok = insert_impl(ctx, key, &n);
    if (!ok && n != nullptr) P::template destroy<Node>(n);
    return ok;
  }

  bool remove_pto(ThreadCtx& ctx, std::int64_t key,
                  PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    for (int a = 0; a < pol.attempts; ++a) {
      Node* pred;
      Node* curr;
      if (!search(ctx, key, &pred, &curr)) return false;
      // One transaction replaces the mark CAS + unlink CAS, and the
      // intermediate marked state never becomes visible (§2.3, "Eliminating
      // Redundant Stores").
      int r = prefix<P>(
          1,
          [&]() -> int {
            std::uintptr_t cn = curr->next.load(std::memory_order_relaxed);
            if (is_marked(cn)) return 2;  // already logically deleted
            if (pred->next.load(std::memory_order_relaxed) != word(curr)) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            curr->next.store(mark(cn), std::memory_order_relaxed);
            pred->next.store(cn);
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("list.remove"));
      if (r == 1) {
        ctx.epoch.retire(curr);
        return true;
      }
      if (r == 2) return false;
    }
    return remove_impl(ctx, key);
  }

  bool check_invariants() {
    std::int64_t last = INT64_MIN;
    Node* n = ptr(head_->next.load(std::memory_order_relaxed));
    while (n != tail_) {
      if (n->key <= last) return false;
      if (is_marked(n->next.load(std::memory_order_relaxed))) return false;
      last = n->key;
      n = ptr(n->next.load(std::memory_order_relaxed));
    }
    return true;
  }

  std::size_t size_slow() {
    std::size_t c = 0;
    for (Node* n = ptr(head_->next.load(std::memory_order_relaxed));
         n != tail_; n = ptr(n->next.load(std::memory_order_relaxed))) {
      ++c;
    }
    return c;
  }

 private:
  static std::uintptr_t word(Node* n) {
    return reinterpret_cast<std::uintptr_t>(n);
  }
  static Node* ptr(std::uintptr_t w) {
    return reinterpret_cast<Node*>(w & ~std::uintptr_t{1});
  }
  static bool is_marked(std::uintptr_t w) { return (w & 1) != 0; }
  static std::uintptr_t mark(std::uintptr_t w) { return w | 1; }
  static std::uintptr_t strip(std::uintptr_t w) { return w & ~std::uintptr_t{1}; }

  bool contains_walk(std::int64_t key) {
    Node* curr = ptr(head_->next.load());
    // pto-lint: bounded(sorted traversal; the tail sentinel key is +inf)
    while (curr->key < key) {
      curr = ptr(curr->next.load());
    }
    return curr->key == key && !is_marked(curr->next.load());
  }

  /// Harris search: positions (pred, curr) with pred->key < key <= curr->key,
  /// physically unlinking marked nodes along the way. Returns whether curr
  /// holds the key. Caller holds an epoch guard.
  bool search(ThreadCtx& ctx, std::int64_t key, Node** out_pred,
              Node** out_curr) {
    (void)ctx;
  retry:
    Node* pred = head_;
    Node* curr = ptr(pred->next.load());
    for (;;) {
      std::uintptr_t cn = curr->next.load();
      while (is_marked(cn)) {
        // curr is logically deleted: unlink it.
        std::uintptr_t expect = word(curr);
        if (!pred->next.compare_exchange_strong(expect, strip(cn))) {
          goto retry;
        }
        curr = ptr(strip(cn));
        cn = curr->next.load();
      }
      if (curr->key >= key) break;
      pred = curr;
      curr = ptr(cn);
    }
    *out_pred = pred;
    *out_curr = curr;
    return curr->key == key;
  }

  bool insert_impl(ThreadCtx& ctx, std::int64_t key, Node** node) {
    for (;;) {
      Node* pred;
      Node* curr;
      if (search(ctx, key, &pred, &curr)) return false;
      Node* n = *node;
      if (n == nullptr) {
        n = P::template make<Node>();
        n->key = key;
        n->next.init(0);
        *node = n;
      }
      n->next.store(word(curr), std::memory_order_relaxed);
      std::uintptr_t expect = word(curr);
      if (pred->next.compare_exchange_strong(expect, word(n))) {
        *node = nullptr;
        return true;
      }
    }
  }

  bool remove_impl(ThreadCtx& ctx, std::int64_t key) {
    for (;;) {
      Node* pred;
      Node* curr;
      if (!search(ctx, key, &pred, &curr)) return false;
      std::uintptr_t cn = curr->next.load();
      if (is_marked(cn)) return false;
      // Logical deletion: mark curr's next pointer.
      if (!curr->next.compare_exchange_strong(cn, mark(cn))) continue;
      // Physical deletion: best effort; search() finishes it otherwise.
      std::uintptr_t expect = word(curr);
      if (pred->next.compare_exchange_strong(expect, strip(cn))) {
        ctx.epoch.retire(curr);
      } else {
        Node* p2;
        Node* c2;
        search(ctx, key, &p2, &c2);  // helps unlink, then safe to retire
        ctx.epoch.retire(curr);
      }
      return true;
    }
  }

  EpochDomain<P> dom_;
  Node* head_;
  Node* tail_;
};

}  // namespace pto
