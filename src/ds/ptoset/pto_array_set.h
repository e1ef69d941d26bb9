// PTOArraySet: a small ordered set *designed for PTO*, implementing the
// paper's concluding proposal (§5, §7): "a slow-path that bears these costs,
// coupled with an unencumbered fast-path, may provide a 'sweet spot' for
// algorithm designers ... encourages the design of nonblocking data
// structures with slower slow-paths, as long as they afford faster
// fast-paths."
//
// Design, deliberately inverted from classic lock-free engineering:
//
//   fast path (expected): one prefix transaction does an in-place sorted
//     array edit (memmove-style shifts, version bump). No CAS, no
//     allocation, no descriptor, no fence — nothing but plain accesses.
//
//   slow path (rare): whole-array copy-on-write published with a single CAS
//     on a (version | pointer) word — trivially correct and nonblocking,
//     costing an allocation + O(n) copy per update. Nobody optimized it,
//     exactly as §5 recommends: its job is to exist so the fast path may be
//     simple.
//
//   lookups: fast path reads the array inside a transaction (consistent
//     snapshot, epoch elided); fallback double-checks the version word
//     (lock-free, not wait-free — §5's "Progress vs. Optimization
//     Trade-off" applied on purpose).
//
// Capacity-bounded (the fast path's write set must fit HTM); intended for
// small *low-contention* hot sets: routing tables, watch lists, quota sets.
// Being one centralized array, every concurrent update conflicts — under
// heavy multi-writer contention the hash table's per-bucket parallelism
// wins (abl_ptoset quantifies the crossover). This is §5's precondition in
// action: the fast/slow sweet spot exists "if the prefix succeeds with high
// probability".
#pragma once

#include <cstdint>
#include <optional>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P, unsigned Capacity = 48>
class PTOArraySet {
  static_assert(Capacity >= 2 && Capacity <= 256,
                "fast-path write set must fit best-effort HTM");

 public:
  static constexpr PrefixPolicy kDefaultPolicy{4};

  struct ThreadCtx {
    explicit ThreadCtx(PTOArraySet& s) : epoch(s.dom_.register_thread()) {}
    typename EpochDomain<P>::Handle epoch;
  };

  PTOArraySet() { word_.init(pack(make_block(), 0)); }

  ~PTOArraySet() {
    destroy_block(block_of(word_.load(std::memory_order_relaxed)), nullptr);
  }

  PTOArraySet(const PTOArraySet&) = delete;
  PTOArraySet& operator=(const PTOArraySet&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  bool contains(ThreadCtx& ctx, std::int64_t key,
                PrefixPolicy pol = kDefaultPolicy) {
    if (!P::strongly_atomic()) {
      typename EpochDomain<P>::Guard g(ctx.epoch);
      return lookup_double_check(key);
    }
    return prefix<P>(
        pol,
        [&]() -> bool {
          Block* b = block_of(word_.load(std::memory_order_relaxed));
          return search(b, key) >= 0;
        },
        [&]() -> bool {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return lookup_double_check(key);
        },
        PTO_TELEMETRY_SITE("ptoset.lookup"));
  }

  bool insert(ThreadCtx& ctx, std::int64_t key,
              PrefixPolicy pol = kDefaultPolicy) {
    return update(ctx, key, /*is_insert=*/true, pol);
  }
  bool remove(ThreadCtx& ctx, std::int64_t key,
              PrefixPolicy pol = kDefaultPolicy) {
    return update(ctx, key, /*is_insert=*/false, pol);
  }

  std::size_t size_slow() {
    Block* b = block_of(word_.load(std::memory_order_relaxed));
    return b->size.load(std::memory_order_relaxed);
  }

  bool check_invariants() {
    Block* b = block_of(word_.load(std::memory_order_relaxed));
    std::uint32_t n = b->size.load(std::memory_order_relaxed);
    if (n > Capacity) return false;
    for (std::uint32_t i = 1; i < n; ++i) {
      if (b->keys[i - 1].load(std::memory_order_relaxed) >=
          b->keys[i].load(std::memory_order_relaxed)) {
        return false;
      }
    }
    return true;
  }

  /// True when the set is at capacity (inserts of new keys will fail).
  bool full() { return size_slow() == Capacity; }

 private:
  struct Block {
    Atom<P, std::uint32_t> size;
    Atom<P, std::int64_t> keys[Capacity];
  };

  // (version:16 | Block*:48). The version makes in-place fast-path edits
  // visible to optimistic double-checking readers; the pointer swings on
  // slow-path copy-on-write.
  static constexpr std::uint64_t kPtrMask = 0x0000FFFFFFFFFFFFull;
  static std::uint64_t pack(Block* b, std::uint64_t ver) {
    return (reinterpret_cast<std::uint64_t>(b) & kPtrMask) | (ver << 48);
  }
  static Block* block_of(std::uint64_t w) {
    return reinterpret_cast<Block*>(w & kPtrMask);
  }
  static std::uint64_t bump(std::uint64_t w) {
    return pack(block_of(w), ((w >> 48) + 1) & 0xFFFF);
  }

  Block* make_block() {
    auto* b = static_cast<Block*>(P::alloc_bytes(sizeof(Block)));
    ::new (b) Block();
    b->size.init(0);
    for (auto& k : b->keys) ::new (&k) Atom<P, std::int64_t>();
    return b;
  }
  static void destroy_block(void* b, void*) {
    P::free_bytes(b, sizeof(Block));
  }

  /// Binary search; returns index or -(insertion_point+1).
  int search(Block* b, std::int64_t key) {
    int lo = 0;
    int hi = static_cast<int>(b->size.load(std::memory_order_relaxed)) - 1;
    // pto-lint: bounded(log2 Capacity; binary search halves [lo, hi])
    while (lo <= hi) {
      int mid = (lo + hi) / 2;
      std::int64_t k = b->keys[mid].load(std::memory_order_relaxed);
      if (k == key) return mid;
      if (k < key) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    return -(lo + 1);
  }

  bool lookup_double_check(std::int64_t key) {
    for (;;) {
      std::uint64_t w = word_.load();
      bool found = search(block_of(w), key) >= 0;
      if (word_.load() == w) return found;
      P::pause();
    }
  }

  bool update(ThreadCtx& ctx, std::int64_t key, bool is_insert,
              PrefixPolicy pol) {
    // SoftHTM validates the attempt's reads but, unlike a strongly atomic
    // transaction, does not stop a retired block from being freed under
    // it; pin the epoch there. RTM and simx elide the guard.
    std::optional<typename EpochDomain<P>::Guard> pin;
    if (!P::strongly_atomic()) pin.emplace(ctx.epoch);
    // Fast path: one transaction, in-place shift, version bump. A no-op and
    // an insert into a full set (the set is bounded) return false.
    return prefix<P>(
        pol,
        [&]() -> bool {
          std::uint64_t w = word_.load(std::memory_order_relaxed);
          Block* b = block_of(w);
          std::uint32_t n = b->size.load(std::memory_order_relaxed);
          int pos = search(b, key);
          if (is_insert) {
            if (pos >= 0 || n == Capacity) return false;
            int at = -pos - 1;
            for (int i = static_cast<int>(n); i > at; --i) {
              b->keys[i].store(
                  b->keys[i - 1].load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
            }
            b->keys[at].store(key, std::memory_order_relaxed);
            b->size.store(n + 1, std::memory_order_relaxed);
          } else {
            if (pos < 0) return false;
            for (std::uint32_t i = static_cast<std::uint32_t>(pos) + 1;
                 i < n; ++i) {
              b->keys[i - 1].store(
                  b->keys[i].load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
            }
            b->size.store(n - 1, std::memory_order_relaxed);
          }
          word_.store(bump(w), std::memory_order_relaxed);
          return true;
        },
        [&] { return update_cow(ctx, key, is_insert); },
        PTO_TELEMETRY_SITE("ptoset.update"));
  }

  /// Slow path: unoptimized copy-on-write, one CAS. Deliberately naive.
  bool update_cow(ThreadCtx& ctx, std::int64_t key, bool is_insert) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    for (;;) {
      std::uint64_t w = word_.load();
      Block* b = block_of(w);
      std::uint32_t n = b->size.load(std::memory_order_relaxed);
      int pos = search(b, key);
      if (is_insert && pos >= 0) return false;
      if (!is_insert && pos < 0) return false;
      if (is_insert && n == Capacity) return false;

      Block* nb = make_block();
      std::uint32_t out = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::int64_t k = b->keys[i].load(std::memory_order_relaxed);
        if (!is_insert && k == key) continue;
        if (is_insert && out == static_cast<std::uint32_t>(-pos - 1)) {
          // insertion point handled below via full rebuild
        }
        nb->keys[out++].store(k, std::memory_order_relaxed);
      }
      if (is_insert) {
        // Rebuild in sorted order with the new key included.
        out = 0;
        bool placed = false;
        for (std::uint32_t i = 0; i < n; ++i) {
          std::int64_t k = b->keys[i].load(std::memory_order_relaxed);
          if (!placed && key < k) {
            nb->keys[out++].store(key, std::memory_order_relaxed);
            placed = true;
          }
          nb->keys[out++].store(k, std::memory_order_relaxed);
        }
        if (!placed) nb->keys[out++].store(key, std::memory_order_relaxed);
      }
      nb->size.store(out, std::memory_order_relaxed);

      std::uint64_t neww = pack(nb, (w >> 48) + 1);
      std::uint64_t expect = w;
      if (word_.compare_exchange_strong(expect, neww)) {
        ctx.epoch.retire_custom(b, &destroy_block, nullptr);
        return true;
      }
      destroy_block(nb, nullptr);
    }
  }

  EpochDomain<P> dom_;
  Atom<P, std::uint64_t> word_;
};

}  // namespace pto
