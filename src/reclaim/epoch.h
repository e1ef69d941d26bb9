// Epoch-based memory reclamation (3-epoch EBR, Fraser-style), templated on
// Platform so reservation stores and fences are charged by the simulator.
//
// Transactional elision (paper §5, "Optimization on Strengthened
// Invariants"): when the platform's transactions are strongly atomic, a
// Guard constructed inside a transaction reserves nothing — any free() of a
// line the transaction has touched aborts the transaction, so reservation is
// unnecessary. Under SoftHTM (not strongly atomic) this is unsafe; data
// structures therefore take a Guard *before* entering prefix() when
// !P::strongly_atomic(), so only such platforms pay for the reservation.
// Guards nest via a per-handle depth count.
//
// Reclamation rule: a node retired at epoch e is freed once the global epoch
// reaches e+2; the epoch only advances when every active reservation equals
// the current epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/defs.h"
#include "common/gauges.h"
#include "platform/platform.h"

namespace pto {

template <class P>
class EpochDomain {
 public:
  class Handle;

  EpochDomain() { global_epoch_.init(2); }
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  ~EpochDomain() {
    for (auto& r : orphans_) r.del(r.p, r.ctx);
    gauges::reclaim_backlog().fetch_sub(
        static_cast<std::int64_t>(orphans_.size()), std::memory_order_relaxed);
  }

  /// Claim a per-thread slot. The Handle must outlive all Guards and retire
  /// calls made through it, and be used by one thread only.
  Handle register_thread() {
    for (unsigned i = 0; i < kMaxThreads; ++i) {
      std::uint32_t expect = 0;
      if (slots_[i].claimed.load(std::memory_order_relaxed) == 0 &&
          slots_[i].claimed.compare_exchange_strong(expect, 1)) {
        slots_[i].res.store(kQuiescent, std::memory_order_relaxed);
        // Track the highest slot ever claimed on a *host* atomic (never
        // charged by the simulator) so reservation scans can stop early.
        unsigned hwm = slot_hwm_.load(std::memory_order_relaxed);
        while (hwm < i + 1 &&
               !slot_hwm_.compare_exchange_weak(hwm, i + 1,
                                                std::memory_order_relaxed)) {
        }
        return Handle(this, i);
      }
    }
    // Out of slots. Sharing a slot would let this handle's destructor
    // un-claim a slot another thread still uses, so stop in every build.
    std::fprintf(stderr,
                 "EpochDomain: more than %u concurrent handles (kMaxThreads)\n",
                 kMaxThreads);
    std::abort();
  }

  /// RAII reservation. See file comment for the elision rules.
  class Guard {
   public:
    explicit Guard(Handle& h) : h_(&h) {
      if (P::in_tx() && P::strongly_atomic()) {
        mode_ = kTxElided;  // strong atomicity protects the tx for free
        return;
      }
      if (h.depth_++ > 0) {
        mode_ = kNested;  // an outer guard already holds the reservation
        return;
      }
      mode_ = kActive;
      EpochDomain& d = *h.domain_;
      std::uint64_t e = d.global_epoch_.load(std::memory_order_acquire);
      d.slots_[h.slot_].res.store(e, std::memory_order_relaxed);
      P::fence();  // order the reservation before the data accesses
    }
    ~Guard() {
      switch (mode_) {
        case kTxElided:
          break;
        case kNested:
          --h_->depth_;
          break;
        case kActive:
          --h_->depth_;
          // seq_cst, as in conventional EBR: the quiescence announcement
          // must not be reordered before the last data access. Together
          // with the entry fence this is the "two memory fences and two
          // stores" the paper's transactional lookups elide (§4.5).
          h_->domain_->slots_[h_->slot_].res.store(kQuiescent);
          break;
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    enum Mode { kTxElided, kNested, kActive };
    Handle* h_;
    Mode mode_;
  };

  class Handle {
   public:
    Handle(Handle&& o) noexcept
        : domain_(o.domain_), slot_(o.slot_), depth_(o.depth_),
          scanned_epoch_(o.scanned_epoch_), limbo_visits_(o.limbo_visits_),
          limbo_(std::move(o.limbo_)) {
      o.domain_ = nullptr;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() {
      if (domain_ == nullptr) return;
      // Park undelivered retirements with the domain; freed at domain
      // destruction (or by other handles' reclaim scans via flush()).
      if (!limbo_.empty()) {
        std::lock_guard<std::mutex> lk(domain_->orphan_mu_);
        for (auto& r : limbo_) {
          r.ctx = nullptr;  // pools may die with this handle: destroy outright
          domain_->orphans_.push_back(r);
        }
      }
      domain_->slots_[slot_].res.store(kQuiescent, std::memory_order_release);
      domain_->slots_[slot_].claimed.store(0, std::memory_order_release);
    }

    /// Schedule *p for deletion once no earlier-epoch guard can hold it.
    template <class T>
    void retire(T* p) {
      limbo_.push_back(
          {p, domain_->global_epoch_.load(std::memory_order_relaxed),
           &deleter<T>, nullptr});
      // Host-side gauge for the metrics watchdog (`reclaim_backlog` rule);
      // a relaxed host atomic, so it never charges virtual cycles.
      gauges::reclaim_backlog().fetch_add(1, std::memory_order_relaxed);
      if (limbo_.size() >= kReclaimBatch) reclaim_some();
    }

    /// Retire with a custom disposer and context (e.g. recycle into a pool).
    /// If this handle dies before the grace period elapses, the entry is
    /// re-disposed with ctx == nullptr, which must mean "destroy outright" —
    /// pools need not outlive the domain.
    void retire_custom(void* p, void (*del)(void*, void*), void* ctx) {
      limbo_.push_back(
          {p, domain_->global_epoch_.load(std::memory_order_relaxed), del,
           ctx});
      gauges::reclaim_backlog().fetch_add(1, std::memory_order_relaxed);
      if (limbo_.size() >= kReclaimBatch) reclaim_some();
    }

    /// Best-effort: advance the epoch and free what is safe. noinline keeps
    /// the rare scan out of retire()'s inlined fast path, and the frame
    /// visible in sanitizer free-stacks.
    PTO_NOINLINE void reclaim_some() {
      EpochDomain& d = *domain_;
      std::uint64_t g = d.global_epoch_.load(std::memory_order_acquire);
      if (d.all_reservations_at(g)) {
        std::uint64_t expect = g;
        if (d.global_epoch_.compare_exchange_strong(expect, g + 1)) g = g + 1;
      }
      // Same-thread coherence gives every entry retired since the previous
      // scan an epoch at least that scan's g, so an unchanged epoch frees
      // nothing: skip the host-side scan. While a guard pins the epoch,
      // retire then stays O(1) instead of rescanning the whole limbo list.
      if (g == scanned_epoch_) return;
      scanned_epoch_ = g;
      limbo_visits_ += limbo_.size();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < limbo_.size(); ++i) {
        if (limbo_[i].epoch + 2 <= g) {
          limbo_[i].del(limbo_[i].p, limbo_[i].ctx);
        } else {
          limbo_[kept++] = limbo_[i];
        }
      }
      const std::size_t freed = limbo_.size() - kept;
      if (freed != 0) {
        gauges::reclaim_backlog().fetch_sub(
            static_cast<std::int64_t>(freed), std::memory_order_relaxed);
      }
      limbo_.resize(kept);
    }

    std::size_t limbo_size() const { return limbo_.size(); }
    /// Limbo entries visited by reclaim scans so far (host-side work).
    std::uint64_t limbo_visits() const { return limbo_visits_; }
    unsigned slot() const { return slot_; }

   private:
    friend class EpochDomain;
    friend class Guard;
    Handle(EpochDomain* d, unsigned slot) : domain_(d), slot_(slot) {}

    EpochDomain* domain_;
    unsigned slot_;
    int depth_ = 0;
    std::uint64_t scanned_epoch_ = 0;  ///< global epoch the last scan used
    std::uint64_t limbo_visits_ = 0;
    struct Retired {
      void* p;
      std::uint64_t epoch;
      void (*del)(void*, void*);
      void* ctx;
    };
    std::vector<Retired> limbo_;
  };

  /// Testing/teardown aid: with no guards active, repeatedly advance the
  /// epoch so a subsequent reclaim_some() can free everything.
  void advance_epochs(unsigned n = 3) {
    for (unsigned i = 0; i < n; ++i) {
      std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
      if (!all_reservations_at(g)) return;
      std::uint64_t expect = g;
      global_epoch_.compare_exchange_strong(expect, g + 1);
    }
  }

  std::uint64_t current_epoch() {
    return global_epoch_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
  static constexpr std::size_t kReclaimBatch = 64;
  /// Minimum scan width: 64, the pre-scale-out kMaxThreads, pinned as a
  /// literal so golden simulated cycles at <= 64 threads stay byte-identical.
  static constexpr unsigned kScanFloor = 64;

  template <class T>
  static void deleter(void* q, void*) {
    P::template destroy<T>(static_cast<T*>(q));
  }

  /// Slots the reservation scan must cover. Floored at kScanFloor (the old
  /// kMaxThreads) so runs of <= 64 threads charge exactly the same loads as
  /// before the 1024-thread scale-out; past that, only the claimed
  /// high-water mark — not all 1024 slots — is scanned.
  unsigned scan_bound() const {
    unsigned hwm = slot_hwm_.load(std::memory_order_relaxed);
    return hwm > kScanFloor ? hwm : kScanFloor;
  }

  bool all_reservations_at(std::uint64_t g) {
    const unsigned n = scan_bound();
    for (unsigned i = 0; i < n; ++i) {
      if (slots_[i].claimed.load(std::memory_order_acquire) == 0) continue;
      std::uint64_t r = slots_[i].res.load(std::memory_order_acquire);
      if (r != kQuiescent && r != g) return false;
    }
    return true;
  }

  struct alignas(kCacheLine) Slot {
    Atom<P, std::uint64_t> res;
    Atom<P, std::uint32_t> claimed;
    Slot() { res.init(kQuiescent); claimed.init(0); }
  };

  Atom<P, std::uint64_t> global_epoch_;
  Slot slots_[kMaxThreads];
  /// Highest claimed slot index + 1, monotonic; host atomic (uncharged).
  std::atomic<unsigned> slot_hwm_{0};
  std::mutex orphan_mu_;
  std::vector<typename Handle::Retired> orphans_;
};

}  // namespace pto
