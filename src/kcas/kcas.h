// Lock-free multi-word compare-and-swap, after Harris, Fraser & Pratt
// ("A Practical Multi-word Compare-and-Swap Operation", DISC 2002) — the
// paper's substrate for the Mound's DCAS/DCSS operations, and the target of
// the "apply PTO locally to a sub-operation" experiments (Fig 2(b), 5(b)).
//
// Words managed here are 64-bit cells whose *user* values must keep their low
// two bits zero (pointers to >=4-byte-aligned objects, or integers shifted
// left by 2). The low bits tag in-flight descriptors:
//   ..01  RDCSS descriptor (restricted double-compare single-swap)
//   ..10  MCAS descriptor
//
// Algorithm sketch:
//   rdcss(d):   install d into the data word if it holds d->o2 (helping any
//               descriptor found there), then complete(d): if *a1 == o1 swap
//               in n2 else restore o2. The decision is recorded once in
//               d->outcome so all helpers agree.
//   mcas(d):    phase 1 installs d into every word via rdcss with control
//               word = d->status (install only while UNDECIDED); then CAS
//               status UNDECIDED -> SUCCESS/FAILED; phase 2 replaces d with
//               the new (or old) values. Entries are sorted by address for
//               lock-freedom.
//
// Descriptors are recycled through per-thread Pools after an epoch grace
// period (retire_custom), reproducing the Mound's "descriptors are reused"
// behavior: steady-state DCAS costs no allocator traffic.
//
// PTO acceleration (pto_mcas / pto_dcss): a prefix transaction re-reads the
// words; if any holds a descriptor it aborts explicitly (§2.4, avoid
// helping), otherwise it performs the multi-word update with plain stores —
// replacing up to 3k+1 CASes with one transaction.
//
// Concurrency preconditions: callers must hold an epoch Guard for the domain
// passed at construction whenever they may dereference descriptors (all the
// sw paths); PTO fast paths are protected by strong atomicity or by the
// caller's FallbackGuard (see reclaim/epoch.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto::kcas {

inline constexpr unsigned kMaxK = 4;

inline constexpr std::uint64_t kTagMask = 3;
inline constexpr std::uint64_t kRdcssTag = 1;
inline constexpr std::uint64_t kMcasTag = 2;

inline bool is_rdcss(std::uint64_t v) { return (v & kTagMask) == kRdcssTag; }
inline bool is_mcas(std::uint64_t v) { return (v & kTagMask) == kMcasTag; }
inline bool is_clean(std::uint64_t v) { return (v & kTagMask) == 0; }

enum McasStatus : std::uint64_t {
  kUndecided = 0,
  kSuccess = 1,
  kFailed = 2,
};

enum RdcssOutcome : std::uint64_t {
  kPending = 0,
  kTook = 1,     ///< control matched; n2 installed
  kRestored = 2  ///< control mismatched; o2 restored
};

template <class P>
using Word = Atom<P, std::uint64_t>;

template <class P>
struct Entry {
  Word<P>* addr;
  std::uint64_t exp;
  std::uint64_t des;
};

template <class P>
struct RdcssDesc {
  Word<P>* a1;  ///< control address (read-only)
  std::uint64_t o1;
  Word<P>* a2;  ///< data address (swapped)
  std::uint64_t o2;
  std::uint64_t n2;
  Atom<P, std::uint64_t> outcome;  ///< first completer's decision wins
};

template <class P>
struct McasDesc {
  Atom<P, std::uint64_t> status;
  unsigned k = 0;
  Entry<P> e[kMaxK];  ///< immutable once the descriptor is published
};

/// Per-thread descriptor cache. Descriptors come back via epoch-deferred
/// recycle, so a pooled descriptor is never still referenced by a helper.
template <class P>
struct Pools {
  std::vector<RdcssDesc<P>*> rdcss;
  std::vector<McasDesc<P>*> mcas;

  ~Pools() {
    for (auto* d : rdcss) P::template destroy<RdcssDesc<P>>(d);
    for (auto* d : mcas) P::template destroy<McasDesc<P>>(d);
  }

  RdcssDesc<P>* get_rdcss() {
    if (rdcss.empty()) return P::template make<RdcssDesc<P>>();
    auto* d = rdcss.back();
    rdcss.pop_back();
    return d;
  }
  McasDesc<P>* get_mcas() {
    if (mcas.empty()) return P::template make<McasDesc<P>>();
    auto* d = mcas.back();
    mcas.pop_back();
    return d;
  }

  static void recycle_rdcss(void* p, void* pool) {
    if (pool == nullptr) {
      P::template destroy<RdcssDesc<P>>(static_cast<RdcssDesc<P>*>(p));
      return;
    }
    static_cast<Pools*>(pool)->rdcss.push_back(static_cast<RdcssDesc<P>*>(p));
  }
  static void recycle_mcas(void* p, void* pool) {
    if (pool == nullptr) {
      P::template destroy<McasDesc<P>>(static_cast<McasDesc<P>*>(p));
      return;
    }
    static_cast<Pools*>(pool)->mcas.push_back(static_cast<McasDesc<P>*>(p));
  }
};

/// Everything a thread needs to run kcas operations: its epoch handle and
/// descriptor pools. Data-structure ThreadCtx types embed one of these.
template <class P>
struct Ctx {
  explicit Ctx(EpochDomain<P>& dom) : epoch(dom.register_thread()) {}
  typename EpochDomain<P>::Handle epoch;
  Pools<P> pools;
};

namespace detail {

template <class P>
std::uint64_t rdcss_tagged(RdcssDesc<P>* d) {
  return reinterpret_cast<std::uint64_t>(d) | kRdcssTag;
}
template <class P>
std::uint64_t mcas_tagged(McasDesc<P>* d) {
  return reinterpret_cast<std::uint64_t>(d) | kMcasTag;
}
template <class P>
RdcssDesc<P>* rdcss_ptr(std::uint64_t v) {
  return reinterpret_cast<RdcssDesc<P>*>(v & ~kTagMask);
}
template <class P>
McasDesc<P>* mcas_ptr(std::uint64_t v) {
  return reinterpret_cast<McasDesc<P>*>(v & ~kTagMask);
}

/// Finish an RDCSS whose descriptor is installed in d->a2. All helpers agree
/// on the decision via d->outcome.
template <class P>
void complete(RdcssDesc<P>* d) {
  std::uint64_t control = d->a1->load(std::memory_order_acquire);
  std::uint64_t decision = (control == d->o1) ? kTook : kRestored;
  std::uint64_t expected = kPending;
  d->outcome.compare_exchange_strong(expected, decision);
  decision = d->outcome.load(std::memory_order_acquire);
  std::uint64_t expect_tag = rdcss_tagged(d);
  d->a2->compare_exchange_strong(expect_tag,
                                 decision == kTook ? d->n2 : d->o2);
}

template <class P>
void help_mcas(Ctx<P>& ctx, McasDesc<P>* d);

/// Run the RDCSS described by (a1,o1,a2,o2,n2) using a pooled descriptor.
/// Returns the clean (or foreign-mcas) value observed in a2: o2 means the
/// RDCSS took effect (check `outcome` for the control comparison result).
template <class P>
std::uint64_t rdcss(Ctx<P>& ctx, Word<P>* a1, std::uint64_t o1, Word<P>* a2,
                    std::uint64_t o2, std::uint64_t n2,
                    std::uint64_t* outcome) {
  RdcssDesc<P>* d = ctx.pools.get_rdcss();
  d->a1 = a1;
  d->o1 = o1;
  d->a2 = a2;
  d->o2 = o2;
  d->n2 = n2;
  d->outcome.store(kPending, std::memory_order_relaxed);
  const std::uint64_t tagged = rdcss_tagged(d);
  for (;;) {
    std::uint64_t expect = o2;
    if (a2->compare_exchange_strong(expect, tagged)) {
      complete(d);
      std::uint64_t out = d->outcome.load(std::memory_order_acquire);
      if (outcome) *outcome = out;
      ctx.epoch.retire_custom(d, &Pools<P>::recycle_rdcss, &ctx.pools);
      return o2;
    }
    if (is_rdcss(expect)) {
      complete(rdcss_ptr<P>(expect));
      continue;
    }
    // Clean mismatch or a foreign MCAS descriptor: the RDCSS did not install.
    if (outcome) *outcome = kRestored;
    ctx.pools.rdcss.push_back(d);  // never published: reuse immediately
    return expect;
  }
}

template <class P>
void help_mcas(Ctx<P>& ctx, McasDesc<P>* d) {
  const std::uint64_t me = mcas_tagged(d);
  if (d->status.load(std::memory_order_acquire) == kUndecided) {
    std::uint64_t desired = kSuccess;
    for (unsigned i = 0; i < d->k && desired == kSuccess; ++i) {
      for (;;) {
        std::uint64_t v = rdcss<P>(ctx, &d->status, kUndecided, d->e[i].addr,
                                   d->e[i].exp, me, nullptr);
        if (v == d->e[i].exp) break;  // installed (or restored post-decision)
        if (is_mcas(v)) {
          if (v == me) break;  // another helper installed for us
          help_mcas(ctx, mcas_ptr<P>(v));
          continue;
        }
        desired = kFailed;  // clean value != expected
        break;
      }
    }
    std::uint64_t expected = kUndecided;
    d->status.compare_exchange_strong(expected, desired);
  }
  const bool succeeded = d->status.load(std::memory_order_acquire) == kSuccess;
  for (unsigned i = 0; i < d->k; ++i) {
    std::uint64_t expect = me;
    d->e[i].addr->compare_exchange_strong(
        expect, succeeded ? d->e[i].des : d->e[i].exp);
  }
}

}  // namespace detail

/// Read a kcas-managed word, helping any in-flight operation to completion
/// so the returned value is always clean. Caller must hold an epoch Guard.
template <class P>
std::uint64_t read(Ctx<P>& ctx, Word<P>& w) {
  for (;;) {
    std::uint64_t v = w.load(std::memory_order_acquire);
    if (PTO_LIKELY(is_clean(v))) return v;
    if (is_rdcss(v)) {
      detail::complete(detail::rdcss_ptr<P>(v));
    } else {
      detail::help_mcas(ctx, detail::mcas_ptr<P>(v));
    }
  }
}

/// Software multi-word CAS over k <= kMaxK entries. Lock-free; helps
/// conflicting operations. Caller must hold an epoch Guard.
template <class P>
bool mcas(Ctx<P>& ctx, const Entry<P>* entries, unsigned k) {
  assert(k >= 1 && k <= kMaxK);
  McasDesc<P>* d = ctx.pools.get_mcas();
  d->status.store(kUndecided, std::memory_order_relaxed);
  d->k = k;
  for (unsigned i = 0; i < k; ++i) {
    assert(is_clean(entries[i].exp) && is_clean(entries[i].des));
    d->e[i] = entries[i];
  }
  std::sort(d->e, d->e + k,
            [](const Entry<P>& a, const Entry<P>& b) { return a.addr < b.addr; });
  detail::help_mcas(ctx, d);
  bool ok = d->status.load(std::memory_order_acquire) == kSuccess;
  ctx.epoch.retire_custom(d, &Pools<P>::recycle_mcas, &ctx.pools);
  return ok;
}

/// Double-compare-single-swap: atomically { if (*control == cexp && *data ==
/// dexp) *data = dnew; }. May fail spuriously when the control word holds an
/// in-flight descriptor; callers re-read and retry (kcas::read helps).
/// Caller must hold an epoch Guard.
template <class P>
bool dcss(Ctx<P>& ctx, Word<P>& control, std::uint64_t cexp, Word<P>& data,
          std::uint64_t dexp, std::uint64_t dnew) {
  assert(is_clean(cexp) && is_clean(dexp) && is_clean(dnew));
  for (;;) {
    std::uint64_t outcome = kRestored;
    std::uint64_t v =
        detail::rdcss<P>(ctx, &control, cexp, &data, dexp, dnew, &outcome);
    if (v == dexp) return outcome == kTook;
    if (is_rdcss(v)) continue;  // already completed inside rdcss(); re-try
    if (is_mcas(v)) {
      detail::help_mcas(ctx, detail::mcas_ptr<P>(v));
      continue;
    }
    return false;  // clean value != dexp
  }
}

/// Convenience two-entry MCAS (the Mound's DCAS). Caller holds a Guard.
template <class P>
bool dcas(Ctx<P>& ctx, Word<P>& w1, std::uint64_t e1, std::uint64_t n1,
          Word<P>& w2, std::uint64_t e2, std::uint64_t n2) {
  Entry<P> e[2] = {{&w1, e1, n1}, {&w2, e2, n2}};
  return mcas<P>(ctx, e, 2);
}

// ---------------------------------------------------------------------------
// PTO acceleration (paper §3.1 "Mounds": apply PTO locally to DCAS/DCSS).
// ---------------------------------------------------------------------------

/// Transactional fast path for MCAS: read all words (abort on any in-flight
/// descriptor rather than helping, §2.4), compare, store. Falls back to the
/// software mcas after `pol.attempts` aborts. Retry default follows the
/// paper's tuned value of 4.
template <class P>
bool pto_mcas(Ctx<P>& ctx, const Entry<P>* entries, unsigned k,
              PrefixPolicy pol = PrefixPolicy(4)) {
  pol.retry_on_explicit = true;  // descriptors clear quickly; retrying pays
  return prefix<P>(
      pol,
      [&]() -> bool {
        for (unsigned i = 0; i < k; ++i) {
          std::uint64_t v = entries[i].addr->load(std::memory_order_relaxed);
          if (PTO_UNLIKELY(!is_clean(v))) P::template tx_abort<TX_CODE_HELPING>();
          if (v != entries[i].exp) return false;
        }
        for (unsigned i = 0; i < k; ++i) {
          // seq_cst as in the original; the fence is subsumed by the
          // transaction (and charged only in the Fig 5(b) ablation).
          entries[i].addr->store(entries[i].des);
        }
        return true;
      },
      [&]() -> bool { return mcas<P>(ctx, entries, k); },
      PTO_TELEMETRY_SITE("kcas.mcas"));
}

template <class P>
bool pto_dcas(Ctx<P>& ctx, Word<P>& w1, std::uint64_t e1, std::uint64_t n1,
              Word<P>& w2, std::uint64_t e2, std::uint64_t n2,
              PrefixPolicy pol = PrefixPolicy(4)) {
  Entry<P> e[2] = {{&w1, e1, n1}, {&w2, e2, n2}};
  return pto_mcas<P>(ctx, e, 2, pol);
}

/// Transactional fast path for DCSS.
template <class P>
bool pto_dcss(Ctx<P>& ctx, Word<P>& control, std::uint64_t cexp,
              Word<P>& data, std::uint64_t dexp, std::uint64_t dnew,
              PrefixPolicy pol = PrefixPolicy(4)) {
  pol.retry_on_explicit = true;
  return prefix<P>(
      pol,
      [&]() -> bool {
        std::uint64_t c = control.load(std::memory_order_relaxed);
        std::uint64_t d = data.load(std::memory_order_relaxed);
        if (PTO_UNLIKELY(!is_clean(c) || !is_clean(d))) {
          P::template tx_abort<TX_CODE_HELPING>();
        }
        if (c != cexp || d != dexp) return false;
        data.store(dnew);
        return true;
      },
      [&]() -> bool { return dcss<P>(ctx, control, cexp, data, dexp, dnew); },
      PTO_TELEMETRY_SITE("kcas.dcss"));
}

}  // namespace pto::kcas
