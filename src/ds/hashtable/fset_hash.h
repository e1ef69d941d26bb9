// Dynamic-sized nonblocking hash table in the style of Liu, Zhang & Spear
// ("Dynamic-Sized Nonblocking Hash Tables", PODC 2014): each bucket holds a
// freezable set — an array updated by copy-on-write — and resizing freezes
// the old buckets and splits them lazily into a table of twice the size
// (growth only in this implementation; see DESIGN.md §3).
//
// Variants (paper §3.3, §4.5, Fig 4):
//   kLockfree    CoW updates (alloc + copy + CAS), wait-free lookups.
//   kPto         the same CoW algorithm accelerated with prefix
//                transactions: lookups run in a transaction that elides the
//                epoch guard entirely ("all interaction with the epoch-based
//                reclaimer can be elided"); updates gain little — the CoW
//                allocation dominates, as the paper observes.
//   kPtoInplace  the algorithm-specific optimization: updates speculatively
//                mutate the bucket array in place inside a transaction and
//                bump a counter packed into the bucket word; non-
//                transactional lookups are degraded from wait-free to
//                lock-free by double-checking the bucket word (paper §5,
//                "Progress vs. Optimization Trade-off"). Fallback is CoW.
//
// kPtoInplace must not run concurrently with kLockfree/kPto *lookups* on the
// same instance (those skip the double-check); mixing the update paths is
// safe, and kPtoInplace's own fallback is exactly the CoW path.
//
// Bucket word layout: [counter:15 | pointer:48 | frozen:1]. The counter
// makes in-place mutations visible to optimistic readers; the frozen bit
// makes a bucket immutable during migration.
#pragma once

#include <cstdint>
#include <new>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class FSetHash {
 public:
  enum class Mode { kLockfree, kPto, kPtoInplace };

  static constexpr unsigned kBucketThreshold = 8;  ///< resize trigger
  static constexpr unsigned kInitialBuckets = 16;
  static constexpr PrefixPolicy kDefaultPolicy{4};

  struct ThreadCtx {
    explicit ThreadCtx(FSetHash& h) : epoch(h.dom_.register_thread()) {}
    typename EpochDomain<P>::Handle epoch;
  };

  FSetHash() { head_.init(make_table(kInitialBuckets, nullptr)); }

  ~FSetHash() {
    Table* t = head_.load(std::memory_order_relaxed);
    while (t != nullptr) {
      Table* pred = t->pred.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < t->len; ++i) {
        std::uint64_t w = t->buckets()[i].load(std::memory_order_relaxed);
        if (node_of(w) != nullptr) destroy_node(node_of(w), nullptr);
      }
      destroy_table(t, nullptr);
      t = pred;
    }
  }

  FSetHash(const FSetHash&) = delete;
  FSetHash& operator=(const FSetHash&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  // -- lookups -----------------------------------------------------------------

  bool contains(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    switch (mode) {
      case Mode::kLockfree: {
        // Wait-free: one bucket read, immutable CoW arrays.
        typename EpochDomain<P>::Guard g(ctx.epoch);
        return lookup_once(key);
      }
      case Mode::kPto:
      case Mode::kPtoInplace: {
        if (!P::strongly_atomic()) {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return lookup_double_check(key);
        }
        // The transaction subsumes the epoch guard, the reclaimer fences,
        // and (for in-place mode) the double-check.
        return prefix<P>(
            kDefaultPolicy, [&]() -> bool { return lookup_once(key); },
            [&]() -> bool {
              typename EpochDomain<P>::Guard g(ctx.epoch);
              return lookup_double_check(key);
            },
            PTO_TELEMETRY_SITE("hash.lookup"));
      }
    }
    return false;
  }

  // -- updates -----------------------------------------------------------------

  bool insert(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    return update(ctx, key, true, mode);
  }
  bool remove(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    return update(ctx, key, false, mode);
  }

  bool update(ThreadCtx& ctx, std::int64_t key, bool is_insert, Mode mode) {
    switch (mode) {
      case Mode::kLockfree: {
        typename EpochDomain<P>::Guard g(ctx.epoch);
        return update_cow(ctx, key, is_insert, /*use_tx=*/false);
      }
      case Mode::kPto: {
        typename EpochDomain<P>::Guard g(ctx.epoch);
        return update_cow(ctx, key, is_insert, /*use_tx=*/true);
      }
      case Mode::kPtoInplace:
        // The transactional attempts need no epoch guard under strong
        // atomicity (a racing free aborts the transaction); the fallback
        // takes its own guard. SoftHTM lacks that property, so guard the
        // whole operation there.
        if (!P::strongly_atomic()) {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return update_inplace(ctx, key, is_insert);
        }
        return update_inplace(ctx, key, is_insert);
    }
    return false;
  }

  /// Quiescent checks: no frozen buckets reachable from the head table, no
  /// duplicate keys, every key hashed to its bucket.
  bool check_invariants() {
    Table* t = head_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < t->len; ++i) {
      std::uint64_t w = bucket_or_pred(t, i);
      FSetNode* n = node_of(w);
      if (n == nullptr) continue;
      std::uint32_t sz = n->size.load(std::memory_order_relaxed);
      if (sz > n->cap) return false;
      for (std::uint32_t a = 0; a < sz; ++a) {
        std::int64_t k = n->keys()[a].load(std::memory_order_relaxed);
        if ((hash(k) & (t->len - 1)) != i) return false;
        for (std::uint32_t b = a + 1; b < sz; ++b) {
          if (n->keys()[b].load(std::memory_order_relaxed) == k) return false;
        }
      }
    }
    return true;
  }

  std::size_t size_slow() {
    Table* t = head_.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < t->len; ++i) {
      FSetNode* n = node_of(bucket_or_pred(t, i));
      if (n != nullptr) total += n->size.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::uint32_t table_len() {
    return head_.load(std::memory_order_relaxed)->len;
  }

 private:
  // -- representation ----------------------------------------------------------

  static constexpr std::uint64_t kFrozen = 1;
  static constexpr std::uint64_t kPtrMask = 0x0000FFFFFFFFFFFEull;
  static constexpr unsigned kCtrShift = 48;

  struct FSetNode {
    Atom<P, std::uint32_t> size;
    std::uint32_t cap;
    Atom<P, std::int64_t>* keys() {
      return reinterpret_cast<Atom<P, std::int64_t>*>(this + 1);
    }
    static std::size_t bytes(std::uint32_t cap) {
      return sizeof(FSetNode) + cap * sizeof(Atom<P, std::int64_t>);
    }
  };

  struct Table {
    std::uint32_t len;
    Atom<P, Table*> pred;
    Atom<P, std::uint64_t>* buckets() {
      return reinterpret_cast<Atom<P, std::uint64_t>*>(this + 1);
    }
    static std::size_t bytes(std::uint32_t len) {
      return sizeof(Table) + len * sizeof(Atom<P, std::uint64_t>);
    }
  };

  static FSetNode* node_of(std::uint64_t w) {
    return reinterpret_cast<FSetNode*>(w & kPtrMask);
  }
  static bool is_frozen(std::uint64_t w) { return (w & kFrozen) != 0; }
  static std::uint64_t pack(FSetNode* n, std::uint64_t ctr) {
    return (reinterpret_cast<std::uint64_t>(n) & kPtrMask) |
           (ctr << kCtrShift);
  }
  static std::uint64_t ctr_of(std::uint64_t w) { return w >> kCtrShift; }
  static std::uint64_t bump(std::uint64_t w) {
    return pack(node_of(w), (ctr_of(w) + 1) & 0x7FFF);
  }

  static std::uint64_t hash(std::int64_t k) {
    auto z = static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    return z ^ (z >> 31);
  }

  FSetNode* make_node(std::uint32_t cap) {
    void* p = P::alloc_bytes(FSetNode::bytes(cap));
    auto* n = ::new (p) FSetNode();
    n->size.init(0);
    n->cap = cap;
    for (std::uint32_t i = 0; i < cap; ++i) {
      ::new (&n->keys()[i]) Atom<P, std::int64_t>();
    }
    return n;
  }

  static void destroy_node(void* p, void*) {
    auto* n = static_cast<FSetNode*>(p);
    P::free_bytes(n, FSetNode::bytes(n->cap));
  }

  Table* make_table(std::uint32_t len, Table* pred) {
    void* p = P::alloc_bytes(Table::bytes(len));
    auto* t = ::new (p) Table();
    t->len = len;
    t->pred.init(pred);
    for (std::uint32_t i = 0; i < len; ++i) {
      ::new (&t->buckets()[i]) Atom<P, std::uint64_t>();
      t->buckets()[i].init(0);
    }
    return t;
  }

  static void destroy_table(void* p, void*) {
    auto* t = static_cast<Table*>(p);
    P::free_bytes(t, Table::bytes(t->len));
  }

  // -- bucket management -------------------------------------------------------

  /// Current bucket word, or the (frozen) predecessor's if not yet migrated.
  /// Read-only: never initializes a bucket (used by wait-free lookups).
  std::uint64_t bucket_or_pred(Table* t, std::uint32_t i) {
    std::uint64_t w = t->buckets()[i].load();
    if (w != 0) return w;
    Table* p = t->pred.load();
    // pto-lint: bounded(pred chain; migration unlinks tables, so the chain
    // only ever holds the constant number of unmigrated predecessors)
    while (p != nullptr) {
      std::uint64_t wp = p->buckets()[i & (p->len - 1)].load();
      if (wp != 0) return wp;
      p = p->pred.load();
    }
    return 0;
  }

  /// Freeze the bucket (makes its node immutable) and return the word.
  std::uint64_t freeze_bucket(Table* t, std::uint32_t i) {
    for (;;) {
      std::uint64_t w = t->buckets()[i].load();
      if (is_frozen(w)) return w;
      std::uint64_t expect = w;
      if (t->buckets()[i].compare_exchange_strong(expect, w | kFrozen)) {
        return w | kFrozen;
      }
    }
  }

  /// Initialize bucket i of t from its predecessor; returns a non-zero word.
  std::uint64_t ensure_bucket(ThreadCtx& ctx, Table* t, std::uint32_t i) {
    std::uint64_t w = t->buckets()[i].load();
    if (w != 0) return w;
    Table* p = t->pred.load();
    FSetNode* nn;
    if (p == nullptr) {
      nn = make_node(4);
    } else {
      std::uint32_t j = i & (p->len - 1);
      ensure_bucket(ctx, p, j);  // chains resolve depth-first
      std::uint64_t wp = freeze_bucket(p, j);
      FSetNode* src = node_of(wp);
      std::uint32_t sz =
          src == nullptr ? 0 : src->size.load(std::memory_order_relaxed);
      nn = make_node(sz + 4);
      std::uint32_t out = 0;
      for (std::uint32_t a = 0; a < sz; ++a) {
        std::int64_t k = src->keys()[a].load(std::memory_order_relaxed);
        if ((hash(k) & (t->len - 1)) == i) {
          nn->keys()[out++].store(k, std::memory_order_relaxed);
        }
      }
      nn->size.store(out, std::memory_order_relaxed);
    }
    std::uint64_t expect = 0;
    std::uint64_t neww = pack(nn, 0);
    if (t->buckets()[i].compare_exchange_strong(expect, neww)) {
      return neww;
    }
    destroy_node(nn, nullptr);  // never published
    return t->buckets()[i].load();
  }

  /// Install a doubled table and migrate everything, then retire the old one.
  void resize(ThreadCtx& ctx, Table* t) {
    if (head_.load() != t) return;
    Table* nt = make_table(t->len * 2, t);
    Table* expect = t;
    if (!head_.compare_exchange_strong(expect, nt)) {
      destroy_table(nt, nullptr);
      return;
    }
    for (std::uint32_t i = 0; i < nt->len; ++i) ensure_bucket(ctx, nt, i);
    // Every bucket of nt is populated; nobody needs t anymore.
    nt->pred.store(nullptr);
    for (std::uint32_t j = 0; j < t->len; ++j) {
      FSetNode* old = node_of(t->buckets()[j].load());
      if (old != nullptr) ctx.epoch.retire_custom(old, &destroy_node, nullptr);
    }
    ctx.epoch.retire_custom(t, &destroy_table, nullptr);
  }

  // -- lookups -----------------------------------------------------------------

  bool node_contains(FSetNode* n, std::int64_t key) {
    if (n == nullptr) return false;
    std::uint32_t sz = n->size.load(std::memory_order_relaxed);
    if (sz > n->cap) return false;  // torn optimistic read; caller re-checks
    for (std::uint32_t a = 0; a < sz; ++a) {
      if (n->keys()[a].load(std::memory_order_relaxed) == key) return true;
    }
    return false;
  }

  bool lookup_once(std::int64_t key) {
    Table* t = head_.load(std::memory_order_relaxed);
    std::uint64_t w = bucket_or_pred(t, static_cast<std::uint32_t>(
                                            hash(key) & (t->len - 1)));
    return node_contains(node_of(w), key);
  }

  /// Lock-free lookup for in-place mode: re-read the bucket word to detect
  /// a concurrent transactional mutation (counter bump) — paper §3.3.
  bool lookup_double_check(std::int64_t key) {
    for (;;) {
      Table* t = head_.load();
      auto i = static_cast<std::uint32_t>(hash(key) & (t->len - 1));
      std::uint64_t w = bucket_or_pred(t, i);
      bool found = node_contains(node_of(w), key);
      if (bucket_or_pred(t, i) == w &&
          head_.load(std::memory_order_relaxed) == t) {
        return found;
      }
      P::pause();
    }
  }

  // -- updates -----------------------------------------------------------------

  bool update_cow(ThreadCtx& ctx, std::int64_t key, bool is_insert,
                  bool use_tx) {
    for (;;) {
      Table* t = head_.load();
      auto i = static_cast<std::uint32_t>(hash(key) & (t->len - 1));
      std::uint64_t w = ensure_bucket(ctx, t, i);
      if (is_frozen(w)) {
        // A resize is migrating this table; chase the new head.
        P::pause();
        continue;
      }
      FSetNode* n = node_of(w);
      std::uint32_t sz = n->size.load(std::memory_order_relaxed);
      bool present = node_contains(n, key);
      if (is_insert && present) return false;
      if (!is_insert && !present) return false;

      // Build the updated copy (the allocation the paper §4.5 blames for
      // CoW's cost).
      FSetNode* nn = make_node((is_insert ? sz + 1 : sz) + 4);
      std::uint32_t out = 0;
      for (std::uint32_t a = 0; a < sz; ++a) {
        std::int64_t k = n->keys()[a].load(std::memory_order_relaxed);
        if (!is_insert && k == key) continue;
        nn->keys()[out++].store(k, std::memory_order_relaxed);
      }
      if (is_insert) nn->keys()[out++].store(key, std::memory_order_relaxed);
      nn->size.store(out, std::memory_order_relaxed);
      std::uint64_t neww = pack(nn, ctr_of(w) + 1);

      bool swapped;
      if (use_tx) {
        // PTO: the CAS becomes a validated load + store in a transaction
        // (little gain — the copy above dominates, as the paper reports).
        swapped = prefix<P>(
            kDefaultPolicy,
            [&]() -> bool {
              if (t->buckets()[i].load(std::memory_order_relaxed) != w) {
                P::template tx_abort<TX_CODE_VALIDATION>();
              }
              t->buckets()[i].store(neww, std::memory_order_relaxed);
              return true;
            },
            [&]() -> bool {
              std::uint64_t expect = w;
              bool ok =
                  t->buckets()[i].compare_exchange_strong(expect, neww);
              return ok;
            },
            PTO_TELEMETRY_SITE("hash.update.cow"));
      } else {
        std::uint64_t expect = w;
        swapped = t->buckets()[i].compare_exchange_strong(expect, neww);
      }
      if (!swapped) {
        destroy_node(nn, nullptr);
        continue;
      }
      ctx.epoch.retire_custom(n, &destroy_node, nullptr);
      if (is_insert && out >= kBucketThreshold) resize(ctx, t);
      return true;
    }
  }

  bool update_inplace(ThreadCtx& ctx, std::int64_t key, bool is_insert) {
    auto i_hash = hash(key);
    // Retry whatever the abort cause, up to the default budget.
    PrefixPolicy pol = kDefaultPolicy;
    pol.retry_on_explicit = pol.retry_on_capacity = true;
    // Whether the set changed, and the table a committed insert filled to
    // the resize threshold.
    struct Updated {
      bool changed;
      Table* grow;
    };
    Updated u = prefix<P>(
        pol,
        [&]() -> Updated {
          Table* t = head_.load(std::memory_order_relaxed);
          auto i = static_cast<std::uint32_t>(i_hash & (t->len - 1));
          std::uint64_t w = t->buckets()[i].load(std::memory_order_relaxed);
          if (w == 0 || is_frozen(w)) {
            P::template tx_abort<TX_CODE_HELPING>();
          }
          FSetNode* n = node_of(w);
          std::uint32_t sz = n->size.load(std::memory_order_relaxed);
          std::uint32_t pos = sz;
          for (std::uint32_t x = 0; x < sz; ++x) {
            if (n->keys()[x].load(std::memory_order_relaxed) == key) {
              pos = x;
              break;
            }
          }
          if (is_insert) {
            if (pos != sz) return {false, nullptr};  // already present
            if (sz == n->cap) {
              P::template tx_abort<TX_CODE_POLICY>();  // needs CoW growth
            }
            n->keys()[sz].store(key, std::memory_order_relaxed);
            n->size.store(sz + 1, std::memory_order_relaxed);
          } else {
            if (pos == sz) return {false, nullptr};  // absent
            n->keys()[pos].store(
                n->keys()[sz - 1].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            n->size.store(sz - 1, std::memory_order_relaxed);
          }
          // Bump the counter so optimistic readers revalidate (§3.3).
          t->buckets()[i].store(bump(w), std::memory_order_relaxed);
          return {true, is_insert && sz + 1 >= kBucketThreshold ? t : nullptr};
        },
        [&]() -> Updated {
          // Original CoW algorithm as the fallback.
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return {update_cow(ctx, key, is_insert, /*use_tx=*/false), nullptr};
        },
        PTO_TELEMETRY_SITE("hash.update.inplace"));
    if (u.grow != nullptr) {
      typename EpochDomain<P>::Guard g(ctx.epoch);
      resize(ctx, u.grow);
    }
    return u.changed;
  }

  EpochDomain<P> dom_;
  Atom<P, Table*> head_;
};

}  // namespace pto
