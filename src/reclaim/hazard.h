// Hazard-pointer reclamation (Michael, "Hazard Pointers: Safe Memory
// Reclamation for Lock-Free Objects", TPDS 2004 — the paper's reference
// [34]), templated on Platform.
//
// Transactional elision (paper §2.3 / §5): publishing a hazard pointer is a
// store + fence + validating re-read per protected node; removing it is
// another store. Inside a strongly atomic transaction none of that is
// needed — memory the transaction has read cannot be freed under it (a
// racing free aborts the transaction), so `protect` degenerates to a plain
// load. The paper calls this out twice: "intermediate updates to the hazard
// lists ... can be safely eliminated as redundant stores in the prefix
// transaction" (§2.3) and "T need not guard locations via hazard pointers
// during its own operation" (§5). The abl_reclaimers bench quantifies it.
//
// Non-transactional threads keep full protection, and transactional frees
// still respect *their* published hazards (retire/scan ignores nothing).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/defs.h"
#include "platform/platform.h"

namespace pto {

template <class P, unsigned SlotsPerThread = 4>
class HazardDomain {
 public:
  class Handle;

  HazardDomain() = default;
  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  ~HazardDomain() {
    // At destruction no thread may hold references; free everything parked.
    for (auto& r : orphans_) r.del(r.p);
  }

  Handle register_thread() {
    for (unsigned i = 0; i < kMaxThreads; ++i) {
      std::uint32_t expect = 0;
      if (rows_[i].claimed.load(std::memory_order_relaxed) == 0 &&
          rows_[i].claimed.compare_exchange_strong(expect, 1)) {
        for (auto& s : rows_[i].hp) s.store(0, std::memory_order_relaxed);
        // Host-atomic (uncharged) high-water mark so hazard scans can stop
        // at the claimed prefix instead of walking all kMaxThreads rows.
        unsigned hwm = row_hwm_.load(std::memory_order_relaxed);
        while (hwm < i + 1 &&
               !row_hwm_.compare_exchange_weak(hwm, i + 1,
                                               std::memory_order_relaxed)) {
        }
        return Handle(this, i);
      }
    }
    // Out of rows. Sharing a row would let this handle's destructor
    // un-claim a row another thread still uses, so stop in every build.
    std::fprintf(stderr,
                 "HazardDomain: more than %u concurrent handles "
                 "(kMaxThreads)\n",
                 kMaxThreads);
    std::abort();
  }

  class Handle {
   public:
    Handle(Handle&& o) noexcept
        : dom_(o.dom_), row_(o.row_), limbo_(std::move(o.limbo_)) {
      o.dom_ = nullptr;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() {
      if (dom_ == nullptr) return;
      for (unsigned i = 0; i < SlotsPerThread; ++i) clear(i);
      // Try to drain; park the irreducible rest with the domain.
      scan_and_reclaim();
      if (!limbo_.empty()) {
        std::lock_guard<std::mutex> lk(dom_->orphan_mu_);
        dom_->orphans_.insert(dom_->orphans_.end(), limbo_.begin(),
                              limbo_.end());
      }
      dom_->rows_[row_].claimed.store(0, std::memory_order_release);
    }

    /// Publish slot `i` as protecting the pointee of `src`, with the
    /// validate-retry loop — unless running inside a strongly atomic
    /// transaction, where protection is free (see file comment).
    template <class T>
    T* protect(unsigned i, Atom<P, T*>& src) {
      assert(i < SlotsPerThread);
      if (P::in_tx() && P::strongly_atomic()) {
        return src.load(std::memory_order_relaxed);
      }
      auto& slot = dom_->rows_[row_].hp[i];
      for (;;) {
        T* p = src.load();
        slot.store(reinterpret_cast<std::uintptr_t>(p),
                   std::memory_order_relaxed);
        P::fence();  // publication must precede the validating re-read
        if (src.load() == p) return p;
      }
    }

    /// Publish an already-loaded pointer (caller revalidates reachability).
    void set(unsigned i, const void* p) {
      assert(i < SlotsPerThread);
      if (P::in_tx() && P::strongly_atomic()) return;
      dom_->rows_[row_].hp[i].store(reinterpret_cast<std::uintptr_t>(p));
    }

    void clear(unsigned i) {
      assert(i < SlotsPerThread);
      if (P::in_tx() && P::strongly_atomic()) return;
      dom_->rows_[row_].hp[i].store(0);
    }

    template <class T>
    void retire(T* p) {
      limbo_.push_back({p, &deleter<T>});
      if (limbo_.size() >= kScanThreshold) scan_and_reclaim();
    }

    /// Michael's scan: free every retired node no thread currently hazards.
    void scan_and_reclaim() {
      const unsigned n = dom_->scan_bound();
      std::vector<std::uintptr_t> hazards;
      hazards.reserve(n * SlotsPerThread);
      for (unsigned t = 0; t < n; ++t) {
        if (dom_->rows_[t].claimed.load(std::memory_order_acquire) == 0) {
          continue;
        }
        for (unsigned i = 0; i < SlotsPerThread; ++i) {
          std::uintptr_t h = dom_->rows_[t].hp[i].load();
          if (h != 0) hazards.push_back(h);
        }
      }
      std::sort(hazards.begin(), hazards.end());
      std::size_t kept = 0;
      for (std::size_t i = 0; i < limbo_.size(); ++i) {
        auto addr = reinterpret_cast<std::uintptr_t>(limbo_[i].p);
        if (std::binary_search(hazards.begin(), hazards.end(), addr)) {
          limbo_[kept++] = limbo_[i];
        } else {
          limbo_[i].del(limbo_[i].p);
        }
      }
      limbo_.resize(kept);
    }

    std::size_t limbo_size() const { return limbo_.size(); }
    unsigned row() const { return row_; }

   private:
    friend class HazardDomain;
    Handle(HazardDomain* d, unsigned row) : dom_(d), row_(row) {}

    struct Retired {
      void* p;
      void (*del)(void*);
    };

    HazardDomain* dom_;
    unsigned row_;
    std::vector<Retired> limbo_;
  };

 private:
  /// Minimum scan width: 64, the pre-scale-out kMaxThreads. Pinned literals
  /// (not kMaxThreads, now 1024) so runs of <= 64 threads keep the exact
  /// pre-refactor scan charges and retire cadence — golden cycles depend on
  /// both.
  static constexpr unsigned kScanFloor = 64;
  static constexpr std::size_t kScanThreshold = 2 * kScanFloor;

  /// Rows a scan must cover: the claimed high-water mark, floored at
  /// kScanFloor for <= 64-thread charge identity.
  unsigned scan_bound() const {
    unsigned hwm = row_hwm_.load(std::memory_order_relaxed);
    return hwm > kScanFloor ? hwm : kScanFloor;
  }

  template <class T>
  static void deleter(void* q) {
    P::template destroy<T>(static_cast<T*>(q));
  }

  struct alignas(kCacheLine) Row {
    Atom<P, std::uint32_t> claimed{};
    Atom<P, std::uintptr_t> hp[SlotsPerThread]{};
  };

  Row rows_[kMaxThreads];
  /// Highest claimed row index + 1, monotonic; host atomic (uncharged).
  std::atomic<unsigned> row_hwm_{0};
  std::mutex orphan_mu_;
  std::vector<typename Handle::Retired> orphans_;
};

}  // namespace pto
