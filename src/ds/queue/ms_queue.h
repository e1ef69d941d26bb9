// Michael & Scott lock-free FIFO queue (PODC 1996) — the paper's reference
// [35], cited in §2.3 as a canonical user of double-checking ("implementations
// employ double-checking to ensure a consistent view of multiple memory
// locations"). Included as a further "simple application" of PTO beyond the
// paper's five structures:
//
//   enqueue: the lock-free path reads tail, double-checks it, swings
//            tail->next with a CAS and then the tail pointer with a second
//            CAS (plus the helper CAS when the tail lags). The prefix
//            transaction reads tail once — no double-check, no lagging-tail
//            state — and performs both link and tail swing as plain stores.
//   dequeue: the lock-free path double-checks (head, tail, head->next); the
//            transaction reads them once and swings head with a plain store.
//
// Exercised by abl_list (extension bench) and test_queue.
#pragma once

#include <cstdint>
#include <optional>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class MSQueue {
 public:
  static constexpr PrefixPolicy kDefaultPolicy{4};

  struct Node {
    std::int64_t value;
    Atom<P, Node*> next;
  };

  struct ThreadCtx {
    explicit ThreadCtx(MSQueue& q) : epoch(q.dom_.register_thread()) {}
    typename EpochDomain<P>::Handle epoch;
  };

  MSQueue() {
    Node* dummy = P::template make<Node>();
    dummy->value = 0;
    dummy->next.init(nullptr);
    head_.init(dummy);
    tail_.init(dummy);
  }

  ~MSQueue() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* nx = n->next.load(std::memory_order_relaxed);
      P::template destroy<Node>(n);
      n = nx;
    }
  }

  MSQueue(const MSQueue&) = delete;
  MSQueue& operator=(const MSQueue&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  // -- lock-free baseline ------------------------------------------------------

  void enqueue_lf(ThreadCtx& ctx, std::int64_t v) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* n = make_node(v);
    for (;;) {
      Node* tail = tail_.load();
      Node* next = tail->next.load();
      if (tail != tail_.load()) continue;  // the double-check of §2.3
      if (next != nullptr) {
        // Tail is lagging: help swing it, then retry.
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, next);
        continue;
      }
      Node* expect_null = nullptr;
      if (tail->next.compare_exchange_strong(expect_null, n)) {
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, n);  // may fail: helped
        return;
      }
    }
  }

  std::optional<std::int64_t> dequeue_lf(ThreadCtx& ctx) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    for (;;) {
      Node* head = head_.load();
      Node* tail = tail_.load();
      Node* next = head->next.load();
      if (head != head_.load()) continue;  // double-check
      if (head == tail) {
        if (next == nullptr) return std::nullopt;  // empty
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, next);  // help lagging tail
        continue;
      }
      std::int64_t v = next->value;
      Node* expect = head;
      if (head_.compare_exchange_strong(expect, next)) {
        ctx.epoch.retire(head);
        return v;
      }
    }
  }

  // -- PTO ---------------------------------------------------------------------

  void enqueue_pto(ThreadCtx& ctx, std::int64_t v,
                   PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* n = make_node(v);
    prefix<P>(
        pol,
        [&] {
          Node* tail = tail_.load(std::memory_order_relaxed);
          Node* next = tail->next.load(std::memory_order_relaxed);
          if (next != nullptr) {
            // A lagging tail means an enqueue is mid-flight: back off to
            // the helping fallback (§2.4).
            P::template tx_abort<TX_CODE_HELPING>();
          }
          tail->next.store(n, std::memory_order_relaxed);
          tail_.store(n);  // no lagging-tail intermediate state
        },
        [&] { enqueue_with_node(ctx, n); },
        PTO_TELEMETRY_SITE("queue.enqueue"));
  }

  std::optional<std::int64_t> dequeue_pto(ThreadCtx& ctx,
                                          PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    // The value, and the old head a committed dequeue retires.
    struct Dequeued {
      Node* victim;
      std::optional<std::int64_t> value;
    };
    Dequeued d = prefix<P>(
        pol,
        [&]() -> Dequeued {
          Node* head = head_.load(std::memory_order_relaxed);
          Node* next = head->next.load(std::memory_order_relaxed);
          if (next == nullptr) return {nullptr, std::nullopt};
          // Keep the MS invariant tail >= head: if the tail still points at
          // the node we are about to retire, swing it forward in the same
          // transaction (the lock-free path does this with a helper CAS).
          if (tail_.load(std::memory_order_relaxed) == head) {
            tail_.store(next, std::memory_order_relaxed);
          }
          head_.store(next);
          return {head, next->value};
        },
        [&]() -> Dequeued { return {nullptr, dequeue_lf_unguarded(ctx)}; },
        PTO_TELEMETRY_SITE("queue.dequeue"));
    if (d.victim != nullptr) ctx.epoch.retire(d.victim);
    return d.value;
  }

  bool empty() {
    Node* head = head_.load(std::memory_order_relaxed);
    return head->next.load(std::memory_order_relaxed) == nullptr;
  }

  std::size_t size_slow() {
    std::size_t c = 0;
    for (Node* n = head_.load(std::memory_order_relaxed)
                       ->next.load(std::memory_order_relaxed);
         n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
      ++c;
    }
    return c;
  }

 private:
  Node* make_node(std::int64_t v) {
    Node* n = P::template make<Node>();
    n->value = v;
    n->next.init(nullptr);
    return n;
  }

  /// Lock-free enqueue of an already-allocated node (PTO fallback).
  void enqueue_with_node(ThreadCtx& ctx, Node* n) {
    (void)ctx;
    for (;;) {
      Node* tail = tail_.load();
      Node* next = tail->next.load();
      if (tail != tail_.load()) continue;
      if (next != nullptr) {
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, next);
        continue;
      }
#ifdef PTO_SEEDED_BUGS
      // Deliberate defect (PTO_SEEDED_BUGS): publish the link with a blind
      // store instead of the CAS. Two fallback enqueues racing in the
      // load-next/store window both see next == nullptr; the second store
      // overwrites the first thread's already-linked node, silently dropping
      // it (and stranding tail_ on the lost branch, which swallows every
      // later enqueue that lands there). Only surfaces when an explored
      // schedule puts two threads in the fallback window together — the
      // exploration suite must find it as a conservation violation.
      tail->next.store(n);
      Node* expect = tail;
      tail_.compare_exchange_strong(expect, n);
      return;
#else
      Node* expect_null = nullptr;
      if (tail->next.compare_exchange_strong(expect_null, n)) {
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, n);
        return;
      }
#endif
    }
  }

  std::optional<std::int64_t> dequeue_lf_unguarded(ThreadCtx& ctx) {
    for (;;) {
      Node* head = head_.load();
      Node* tail = tail_.load();
      Node* next = head->next.load();
      if (head != head_.load()) continue;
      if (head == tail) {
        if (next == nullptr) return std::nullopt;
        Node* expect = tail;
        tail_.compare_exchange_strong(expect, next);
        continue;
      }
      std::int64_t v = next->value;
      Node* expect = head;
      if (head_.compare_exchange_strong(expect, next)) {
        ctx.epoch.retire(head);
        return v;
      }
    }
  }

  EpochDomain<P> dom_;
  Atom<P, Node*> head_;
  Atom<P, Node*> tail_;
};

}  // namespace pto
