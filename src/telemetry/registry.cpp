#include "telemetry/registry.h"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "check/check.h"
#include "common/env.h"
#include "common/warn.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "sim/sim.h"
#include "telemetry/prof.h"
#include "telemetry/span.h"

namespace pto::telemetry {

namespace detail {
constinit std::atomic<unsigned> g_taps{0};
}  // namespace detail

void set_tap(unsigned tap, bool on) {
  if (on) {
    detail::g_taps.fetch_or(tap, std::memory_order_relaxed);
  } else {
    detail::g_taps.fetch_and(~tap, std::memory_order_relaxed);
  }
}

namespace {

// PTO_STATS reads the counters (telemetry/emit.h); PTO_METRICS arms them
// through metrics::configure(), PTO_TELEMETRY_REPORT in Registry::instance().
const bool g_counters_env = [] {
  if (env::str("PTO_STATS") != nullptr) set_enabled(true);
  return true;
}();

// Native slot leases: a native thread leases a slot on its first record and
// returns it at thread exit. A recycled slot keeps what its earlier owners
// recorded (counters and histograms stay monotone, as snapshots require),
// and storage stays bounded by live threads.
constexpr unsigned kNoSlot = ~0u;

struct SlotPool {
  std::mutex mu;
  std::vector<unsigned> free;  ///< returned by exited threads
  unsigned next = 0;           ///< slots [next, kMaxThreads) never leased
};

SlotPool& slot_pool() {
  static SlotPool* p = new SlotPool();  // leaked: threads exit after main
  return *p;
}

/// An owned slot is exclusive, so its histograms and flight ring have a
/// single writer. A thread beyond kMaxThreads live ones, or one recording
/// after its exit hook ran, counts into shared slot 0 and records no latency
/// and no flight events.
struct SlotLease {
  unsigned slot = kNoSlot;
  bool owned = false;
  bool exited = false;
};
thread_local SlotLease tls_lease;

struct SlotReturn {
  SlotReturn() = default;
  SlotReturn(const SlotReturn&) = delete;
  SlotReturn& operator=(const SlotReturn&) = delete;
  ~SlotReturn() {
    SlotPool& p = slot_pool();
    std::lock_guard<std::mutex> lk(p.mu);
    p.free.push_back(tls_lease.slot);
    tls_lease = {kNoSlot, false, true};
  }
};

void lease_slot() {
  SlotLease& l = tls_lease;
  l.slot = 0;
  if (l.exited) return;
  {
    SlotPool& p = slot_pool();
    std::lock_guard<std::mutex> lk(p.mu);
    if (!p.free.empty()) {
      l.slot = p.free.back();
      p.free.pop_back();
      l.owned = true;
    } else if (p.next < kMaxThreads) {
      l.slot = p.next++;
      l.owned = true;
    }
  }
  if (!l.owned) {
    warn_once("registry.slot_overflow",
              "more than %u live threads; the excess share a telemetry slot "
              "(counters stay exact) and record no latency or flight events",
              kMaxThreads);
    return;
  }
  thread_local SlotReturn ret;  // constructed once: returns the lease
  (void)ret;
}

constinit std::atomic<obs::FlightRing*> g_slot_rings[kMaxThreads]{};

}  // namespace

std::atomic<obs::FlightRing*>& slot_flight_ring(unsigned slot) {
  return g_slot_rings[slot];
}

Site::~Site() {
  for_each_shard(*this, [](const SiteShard& sh) {
    delete sh.hists.load(std::memory_order_relaxed);
  });
  for (auto& e : ext_) delete[] e.load(std::memory_order_relaxed);
}

SiteShard* Site::ext_segment(unsigned seg) {
  SiteShard* p = ext_[seg].load(std::memory_order_acquire);
  if (p != nullptr) return p;
  // Cold path, taken at most kShardSegs - 1 times per site over the process
  // lifetime; one process-wide mutex is plenty.
  static std::mutex mu;
  std::lock_guard<std::mutex> lk(mu);
  p = ext_[seg].load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new SiteShard[kShardSeg];
    ext_[seg].store(p, std::memory_order_release);
  }
  return p;
}

SiteShard& Site::shard_at(unsigned slot) {
  if (PTO_LIKELY(slot < kShardSeg)) return shards_[slot];
  return ext_segment(slot / kShardSeg - 1)[slot % kShardSeg];
}

[[gnu::always_inline]] inline SiteShard& Site::shard() {
  // Virtual threads within a simulation map to their thread id (they all run
  // on one host thread, so the slots are exclusive).
  if (sim::active()) return shard_at(sim::thread_id());
  if (PTO_UNLIKELY(tls_lease.slot == kNoSlot)) lease_slot();
  return shard_at(tls_lease.slot);
}

template <class Self, class F>
void Site::for_each_shard(Self& self, F&& f) {
  for (auto& sh : self.shards_) f(sh);
  for (auto& e : self.ext_) {
    if (SiteShard* seg = e.load(std::memory_order_acquire)) {
      for (unsigned i = 0; i < kShardSeg; ++i) f(seg[i]);
    }
  }
}

void Site::count(unsigned event, unsigned cause) {
  SiteShard& sh = shard();
  std::atomic<std::uint64_t>* n =
      event == kEventAttempt    ? &sh.attempts
      : event == kEventCommit   ? &sh.commits
      : event == kEventFallback ? &sh.fallbacks
      : event == kEventAbort
          ? &sh.aborts[cause < kTxCodeCount ? cause : TX_ABORT_OTHER]
          : nullptr;  // kEventFallbackEnd counts nothing
  if (n != nullptr) n->fetch_add(1, std::memory_order_relaxed);
}

void Site::record_latency(bool fallback, std::uint64_t ticks) {
  if (sim::active()) return;  // simx latency is virtual time (PTO_PROF)
  SiteShard& sh = shard();
  if (!tls_lease.owned) return;  // lease_slot() warned
  // This thread is the slot's only writer; the lease hand-off orders it
  // after earlier owners.
  LatencyHists* h = sh.hists.load(std::memory_order_relaxed);
  if (PTO_UNLIKELY(h == nullptr)) {
    h = new LatencyHists();
    sh.hists.store(h, std::memory_order_release);
  }
  (fallback ? h->fallback : h->fast).record(ticks);
}

void Site::merge_latency(obs::Histogram& fast,
                         obs::Histogram& fallback) const {
  for_each_shard(*this, [&](const SiteShard& sh) {
    if (const LatencyHists* h = sh.hists.load(std::memory_order_acquire)) {
      fast.merge(h->fast);
      fallback.merge(h->fallback);
    }
  });
}

void Site::reset_latency() {
  for_each_shard(*this, [](const SiteShard& sh) {
    if (LatencyHists* h = sh.hists.load(std::memory_order_acquire)) {
      h->fast.reset();
      h->fallback.reset();
    }
  });
}

PrefixStats Site::snapshot() const {
  PrefixStats s;
  for_each_shard(*this, [&s](const SiteShard& sh) {
    s.attempts += sh.attempts.load(std::memory_order_relaxed);
    s.commits += sh.commits.load(std::memory_order_relaxed);
    s.fallbacks += sh.fallbacks.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kTxCodeCount; ++i) {
      s.aborts[i] += sh.aborts[i].load(std::memory_order_relaxed);
    }
  });
  return s;
}

void Site::reset() {
  for_each_shard(*this, [](SiteShard& sh) {
    sh.attempts.store(0, std::memory_order_relaxed);
    sh.commits.store(0, std::memory_order_relaxed);
    sh.fallbacks.store(0, std::memory_order_relaxed);
    for (auto& a : sh.aborts) a.store(0, std::memory_order_relaxed);
  });
}

Registry& Registry::instance() {
  static Registry* r = [] {
    auto* reg = new Registry();
    if (env::str("PTO_TELEMETRY_REPORT") != nullptr) {
      set_enabled(true);
      std::atexit([] { Registry::instance().report(std::cerr); });
    }
    return reg;
  }();
  return *r;
}

Site* Registry::intern(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const unsigned n = count_.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < n; ++i) {
    if (sites_[i]->name() == name) return sites_[i];
  }
  if (n == kSiteCapacity) {
    throw std::length_error("telemetry registry full: cannot intern '" +
                            std::string(name) + "' beyond " +
                            std::to_string(kSiteCapacity) + " sites");
  }
  sites_[n] = new Site(std::string(name), n);
  count_.store(n + 1, std::memory_order_release);
  return sites_[n];
}

std::vector<Site*> Registry::sites() {
  return std::vector<Site*>(sites_, sites_ + site_count());
}

PrefixStats Registry::totals() {
  PrefixStats t;
  for (Site* s : sites()) t.accumulate(s->snapshot());
  return t;
}

Snapshot Registry::snapshot(bool latency) {
  Snapshot snap;
  snap.sites = sites();
  snap.counts.reserve(snap.sites.size());
  for (Site* s : snap.sites) snap.counts.push_back(s->snapshot());
  if (latency) {
    snap.latency = std::make_unique<obs::Histogram>();
    for (Site* s : snap.sites) s->merge_latency(*snap.latency, *snap.latency);
  }
  return snap;
}

void Registry::reset_all() {
  for (Site* s : sites()) s->reset();
}

void Registry::report(std::ostream& os) {
  os << "== pto telemetry ==\n";
  os << std::left << std::setw(24) << "site" << std::right << std::setw(12)
     << "attempts" << std::setw(12) << "commits" << std::setw(12)
     << "fallbacks";
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    os << std::setw(10) << tx_code_name(c);
  }
  os << "\n";
  for (Site* s : sites()) {
    PrefixStats st = s->snapshot();
    // The native facade sites record only commits and aborts (attempts can't
    // be counted inside a speculative region), so filter on every counter.
    if (st.attempts == 0 && st.commits == 0 && st.fallbacks == 0 &&
        st.total_aborts() == 0) {
      continue;
    }
    os << std::left << std::setw(24) << s->name() << std::right
       << std::setw(12) << st.attempts << std::setw(12) << st.commits
       << std::setw(12) << st.fallbacks;
    for (unsigned c = 1; c < kTxCodeCount; ++c) {
      os << std::setw(10) << st.aborts[c];
    }
    os << "\n";
  }
  os.flush();
}

PrefixStats registry_totals() { return Registry::instance().totals(); }

PrefixStats registry_delta(const PrefixStats& before) {
  return registry_totals().zip(before, std::minus<>());
}

namespace {

/// One virtual thread's spans (telemetry/span.h): [0, depth) are open, and
/// storage above depth is kept for the next push.
struct SpanStack {
  std::vector<Span> spans;
  unsigned depth = 0;
};
/// Indexed by virtual thread id, grown by a thread's first push. Every
/// virtual thread runs on the host thread driving the simulation.
std::vector<SpanStack> g_span_stacks;

/// Push a span for an attempt or fallback event, or pop the innermost one a
/// closing event matches with every span above it. Returns the popped span
/// (valid until the next push); null for a push or when nothing matched.
const Span* step_spans(unsigned tid, const Site* site, unsigned event) {
  const bool push = event == kEventAttempt || event == kEventFallback;
  const bool fallback = event == kEventFallback || event == kEventFallbackEnd;
  if (tid >= g_span_stacks.size() && !push) return nullptr;
  if (tid >= g_span_stacks.size()) g_span_stacks.resize(tid + 1);
  SpanStack& st = g_span_stacks[tid];
  if (push) {
    if (st.depth >= kMaxSpans) return nullptr;  // beyond-plausible nesting
    if (st.depth == st.spans.size()) st.spans.emplace_back();
    st.spans[st.depth++] = Span{site, fallback, sim::now()};
    return nullptr;
  }
  for (unsigned i = st.depth; i-- > 0;) {
    if (st.spans[i].site == site && st.spans[i].fallback == fallback) {
      st.depth = i;
      return &st.spans[i];
    }
  }
  return nullptr;
}

}  // namespace

Span* top_span(unsigned tid) {
  const unsigned depth = span_depth(tid);
  return depth > 0 ? &g_span_stacks[tid].spans[depth - 1] : nullptr;
}

unsigned span_depth(unsigned tid) {
  return tid < g_span_stacks.size() ? g_span_stacks[tid].depth : 0;
}

void clear_spans() {
  for (SpanStack& st : g_span_stacks) st.depth = 0;
}

std::size_t span_stacks() { return g_span_stacks.size(); }

std::string span_name(const Site* site, bool fallback) {
  if (site == nullptr) return "(none)";
  return fallback ? site->name() + "/fallback" : site->name();
}

// The one dispatcher behind telemetry::emit (telemetry/taps.h).
void on_event(Site* site, unsigned event, unsigned cause) {
  if (site == nullptr) return;
  const unsigned t = taps();
  if (t & kTapCounters) site->count(event, cause);
  if ((t & kTapHist) && event == kEventFallback) obs::note_fallback();
  // The flight recorder is native-only (simulated runs already have
  // PTO_TRACE with virtual-time fidelity) and rides the slot lease: a
  // thread records into its slot's ring, and one that owns no slot records
  // nothing (lease_slot warned).
  if ((t & kTapFlight) && event != kEventFallbackEnd && !sim::active()) {
    if (PTO_UNLIKELY(tls_lease.slot == kNoSlot)) lease_slot();
    if (tls_lease.owned) {
      obs::flight_record(g_slot_rings[tls_lease.slot],
                         static_cast<std::uint16_t>(site->id()),
                         static_cast<std::uint8_t>(event), cause);
    }
  }
  // Spans exist only inside a simulation: host-side prefix calls (fixture
  // setup) fall back at once and carry no cycles.
  if ((t & (kTapProf | kTapCheck)) == 0 || !sim::active()) return;
  const unsigned tid = sim::thread_id();
  const Span* s = step_spans(tid, site, event);
  if (event == kEventAttempt || event == kEventFallback) return;
  if (t & kTapProf) prof::on_span_end(site, event, cause, s);
  if (t & kTapCheck) check::on_span_end(site, event, span_depth(tid));
}

}  // namespace pto::telemetry
