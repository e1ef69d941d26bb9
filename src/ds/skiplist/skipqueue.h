// SkipQueue: a skiplist-based priority queue in the style of Lotan & Shavit,
// made linearizable by disallowing pops from traversing past a marked node
// (they help complete its removal and restart from the head instead), as the
// paper does in §4.3.
//
// Duplicate priorities are supported by uniquifying keys: the skiplist key is
// (priority << 28) | (ctx uniquifier << 20) | per-ctx counter, so equal
// priorities become distinct keys that order FIFO-ish by insertion.
//
// PTO (paper §3.1/§4.3): pop attempts one transaction that marks every level
// of the first node and unlinks it from the head; push reuses the skiplist's
// PTO insert. The paper reports PTO yields little benefit here — traversal
// cache misses dominate and poppers conflict at the head — which is exactly
// the behaviour Fig 2(b) reproduces.
#pragma once

#include <optional>

#include "ds/skiplist/skiplist.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class SkipQueue : private SkipList<P> {
  using Base = SkipList<P>;
  using Node = typename Base::Node;
  using Base::find;
  using Base::head_;
  using Base::is_marked;
  using Base::mark;
  using Base::ptr;
  using Base::remove_node;
  using Base::retire;
  using Base::tail_;
  using Base::word;

 public:
  static constexpr int kPrioShift = 28;
  static constexpr PrefixPolicy kDefaultPolicy{4};

  struct ThreadCtx {
    explicit ThreadCtx(SkipQueue& q)
        : base(static_cast<Base&>(q)),
          uniq(q.next_uniq_.fetch_add(1) & 0xFF) {}
    typename Base::ThreadCtx base;
    std::uint32_t uniq;
    std::uint32_t counter = 0;
  };

  SkipQueue() { next_uniq_.init(0); }

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  bool empty() {
    return ptr(head_->next[0].load()) == tail_;
  }

  std::size_t size_slow() { return Base::size_slow(); }

  // -- lock-free baseline ----------------------------------------------------

  void push_lf(ThreadCtx& ctx, std::int32_t prio) {
    while (!Base::insert_lf(ctx.base, make_key(ctx, prio))) {
    }
  }

  std::optional<std::int32_t> pop_min_lf(ThreadCtx& ctx) {
    typename EpochDomain<P>::Guard g(ctx.base.epoch);
    typename Base::Node* preds[Base::kMaxLevel];
    typename Base::Node* succs[Base::kMaxLevel];
    for (;;) {
      Node* first = ptr(head_->next[0].load());
      if (first == tail_) return std::nullopt;
      std::int64_t k = first->key;
      if (is_marked(first->next[0].load())) {
        // Linearizable variant: never traverse past a marked node — help
        // finish its removal and restart from the head.
        find(ctx.base, k, preds, succs);
        continue;
      }
      if (remove_node(ctx.base, k, first)) {
        return static_cast<std::int32_t>(k >> kPrioShift);
      }
    }
  }

  // -- PTO -------------------------------------------------------------------

  void push_pto(ThreadCtx& ctx, std::int32_t prio,
                PrefixPolicy pol = kDefaultPolicy) {
    while (!Base::insert_pto(ctx.base, make_key(ctx, prio), pol)) {
    }
  }

  std::optional<std::int32_t> pop_min_pto(ThreadCtx& ctx,
                                          PrefixPolicy pol = kDefaultPolicy) {
    typename EpochDomain<P>::Guard g(ctx.base.epoch);
    // Retry whatever the abort cause, up to the budget.
    pol.retry_on_explicit = pol.retry_on_capacity = true;
    // The priority, and the node a committed pop retires.
    struct Popped {
      Node* victim;
      std::optional<std::int32_t> prio;
    };
    Popped p = prefix<P>(
        pol,
        [&]() -> Popped {
          std::uintptr_t hw = head_->next[0].load(std::memory_order_relaxed);
          Node* first = ptr(hw);
          if (first == tail_) return {nullptr, std::nullopt};
          const int top = first->toplevel;
          std::uintptr_t succ_words[Base::kMaxLevel];
          for (int l = 0; l < top; ++l) {
            std::uintptr_t sw = first->next[l].load(std::memory_order_relaxed);
            if (is_marked(sw)) {
              // A concurrent pop owns this node: back off to the fallback
              // rather than helping inside the transaction (§2.4).
              P::template tx_abort<TX_CODE_HELPING>();
            }
            succ_words[l] = sw;
          }
          for (int l = 0; l < top; ++l) {
            first->next[l].store(mark(succ_words[l]),
                                 std::memory_order_relaxed);
            if (head_->next[l].load(std::memory_order_relaxed) ==
                word(first)) {
              head_->next[l].store(succ_words[l], std::memory_order_relaxed);
            }
          }
          return {first, static_cast<std::int32_t>(first->key >> kPrioShift)};
        },
        [&]() -> Popped { return {nullptr, pop_min_lf(ctx)}; },
        PTO_TELEMETRY_SITE("skipqueue.pop"));
    if (p.victim != nullptr) retire(ctx.base, p.victim);
    return p.prio;
  }

 private:
  std::int64_t make_key(ThreadCtx& ctx, std::int32_t prio) {
    std::int64_t k = (static_cast<std::int64_t>(prio) << kPrioShift) |
                     (static_cast<std::int64_t>(ctx.uniq) << 20) |
                     (ctx.counter++ & 0xFFFFF);
    return k;
  }

  Atom<P, std::uint32_t> next_uniq_;
};

}  // namespace pto
