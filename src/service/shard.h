// pto::service shard router: a key-value (key-set) service front end over
// per-shard instances of the paper's structures, templated on Platform so the
// exact same router runs on real std::threads (NativePlatform, bench/svc_kv)
// and on simx virtual threads (SimPlatform — the deterministic twin the
// differential tests replay a WorkloadSpec under).
//
// Keys hash to shards through a SplitMix64-style finalizer, so contiguous or
// zipf-clustered hot keys spread across shards instead of piling onto shard
// 0. Each shard is an independent structure with its own epoch domain
// (src/reclaim); a Client registers one ThreadCtx per shard and must be used
// by a single thread, mirroring the per-thread ctx discipline of the
// underlying structures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "service/adapters.h"
#include "service/loadgen.h"

namespace pto::service {

/// SplitMix64 finalizer: full-avalanche key -> shard spreading.
inline std::uint64_t mix_key(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

/// Latency sites shared by every service driver; interned once.
struct SvcSites {
  telemetry::Site* get;
  telemetry::Site* put;
  telemetry::Site* del;

  static SvcSites intern() {
    auto& reg = telemetry::Registry::instance();
    return {reg.intern("svc.get"), reg.intern("svc.put"),
            reg.intern("svc.del")};
  }
  telemetry::Site* of(OpKind k) const {
    return k == OpKind::kGet ? get : k == OpKind::kPut ? put : del;
  }
};

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

template <class P, class A>
class ShardedKV {
 public:
  using DS = typename A::DS;
  using Ctx = typename A::Ctx;

  explicit ShardedKV(unsigned nshards, A adapter = {}) : adapter_(adapter) {
    shards_.reserve(nshards);
    for (unsigned s = 0; s < nshards; ++s) {
      shards_.push_back(std::make_unique<DS>());
    }
  }

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  static unsigned shard_of(std::int64_t key, unsigned nshards) {
    return static_cast<unsigned>(mix_key(static_cast<std::uint64_t>(key)) %
                                 nshards);
  }

  /// Per-thread access handle: one ThreadCtx (epoch registration) per shard.
  /// Single-thread use only; destroy to release the epoch slots (thread
  /// churn in the service maps to client churn here).
  class Client {
   public:
    explicit Client(ShardedKV& kv) : kv_(&kv) {
      ctxs_.reserve(kv.shards());
      for (unsigned s = 0; s < kv.shards(); ++s) {
        ctxs_.emplace_back(kv.shards_[s]->make_ctx());
      }
    }

    bool put(std::int64_t k) {
      const unsigned s = shard_of(k, kv_->shards());
      const bool ok = kv_->adapter_.put(*kv_->shards_[s], ctxs_[s], k);
      puts_ok += ok;
      return ok;
    }
    bool del(std::int64_t k) {
      const unsigned s = shard_of(k, kv_->shards());
      const bool ok = kv_->adapter_.del(*kv_->shards_[s], ctxs_[s], k);
      dels_ok += ok;
      return ok;
    }
    bool get(std::int64_t k) {
      const unsigned s = shard_of(k, kv_->shards());
      return kv_->adapter_.get(*kv_->shards_[s], ctxs_[s], k);
    }

    bool exec(const Op& op) {
      switch (op.kind) {
        case OpKind::kGet: return get(op.key);
        case OpKind::kPut: return put(op.key);
        case OpKind::kDel: return del(op.key);
      }
      return false;  // unreachable
    }

    /// Conservation counters: for set semantics, final service size must
    /// equal sum over clients of (puts_ok - dels_ok) plus the prefill.
    std::uint64_t puts_ok = 0;
    std::uint64_t dels_ok = 0;

   private:
    ShardedKV* kv_;
    std::vector<Ctx> ctxs_;
  };

  Client make_client() { return Client(*this); }

  std::size_t size_slow() {
    std::size_t n = 0;
    for (auto& s : shards_) n += s->size_slow();
    return n;
  }

  bool check_invariants() {
    for (auto& s : shards_) {
      if (!s->check_invariants()) return false;
    }
    return true;
  }

 private:
  friend class Client;
  A adapter_;
  std::vector<std::unique_ptr<DS>> shards_;
};

}  // namespace pto::service
