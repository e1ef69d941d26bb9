// pto::telemetry — process-wide transaction telemetry registry.
//
// A *site* is a named aggregation point for one kind of operation: a prefix
// call site ("bst.insert.pto1", "queue.enqueue", ...), the native HTM facade
// ("htm.rtm" / "htm.soft"), or a timed op class ("native_set.insert",
// "svc.get"). Call sites obtain a site once with PTO_TELEMETRY_SITE("name")
// (a cached intern) and pass it to pto::prefix(); the native HTM facade
// (htm/htm.h) and the simulator report through the same sites, so native
// stress runs and simx runs share one schema. A site is the only per-site
// record: it owns the PrefixStats-shaped counters and the latency
// histograms (obs/obs.h).
//
// Storage is thread-sharded. A *slot* is a thread's index into a site's
// shards: the virtual thread id inside a simulation, otherwise a slot a
// native thread leases on first use and returns when it exits, so storage
// is bounded by live threads x sites. Counters are relaxed atomics, so
// recording is lock-free and snapshotting never blocks writers; snapshots
// may observe a record mid-flight — exact totals are guaranteed only at
// quiescence (which is when benches and tests read them). A shard's latency
// histograms are single-writer: they are allocated on the first sample its
// slot's thread records while histograms are armed. The flight recorder's
// rings hang off the same lease, one per native slot.
//
// Zero overhead when off: every event passes the tap word (telemetry/taps.h).
// The counters tap is armed by what reads the counters: PTO_STATS /
// PTO_TELEMETRY_REPORT / PTO_METRICS, or telemetry::set_enabled(). Inside the
// simulator no counter update ever charges virtual cycles, so enabling
// telemetry cannot change a simulated result — simx determinism doubles as
// the zero-overhead proof.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/defs.h"
#include "core/prefix.h"
#include "htm/txcode.h"
#include "obs/histogram.h"
#include "telemetry/taps.h"

namespace pto::obs {
class FlightRing;
}  // namespace pto::obs

namespace pto::telemetry {

/// True when sites count events (the counters tap).
inline bool enabled() { return tap_on(kTapCounters); }
inline void set_enabled(bool on) { set_tap(kTapCounters, on); }

/// One slot's fast/fallback latency histograms (raw ticks).
struct LatencyHists {
  obs::Histogram fast;      ///< ops whose prefix attempts all committed
  obs::Histogram fallback;  ///< ops that took at least one fallback
};

/// One slot of a site. Padded so concurrent native threads never
/// false-share.
struct alignas(kCacheLine) SiteShard {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> fallbacks{0};
  std::atomic<std::uint64_t> aborts[kTxCodeCount]{};
  std::atomic<LatencyHists*> hists{nullptr};
};

class Site {
 public:
  explicit Site(std::string name, unsigned id = 0, bool facade = false)
      : name_(std::move(name)), id_(id), facade_(facade) {}
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }
  /// Dense registration index (assigned by Registry::intern): the site's
  /// index in the registry table and its key in flight-recorder records
  /// (obs/flight.h).
  unsigned id() const { return id_; }
  /// True for the native HTM facade's site ("htm.rtm" / "htm.soft"). It
  /// counts the commits and aborts of the transactions the prefix sites
  /// already count, so the registry-wide totals (Registry::totals(), the
  /// metrics interval's prefix block) leave it out; per-site views keep it.
  bool facade() const { return facade_; }

  /// Count one prefix event (telemetry/taps.h) in this thread's shard.
  void count(unsigned event, unsigned cause);

  /// Record one op's latency in this thread's histograms. Dropped inside a
  /// simulation, and (with a one-time warning) when the thread holds no
  /// slot of its own: a single-writer histogram is never shared.
  void record_latency(bool fallback, std::uint64_t ticks);
  /// Add every slot's histograms into `fast` / `fallback`.
  void merge_latency(obs::Histogram& fast, obs::Histogram& fallback) const;
  void reset_latency();

  /// Sum of all shards' counters as a plain PrefixStats.
  PrefixStats snapshot() const;
  /// Zero every shard's counters (histograms: reset_latency()).
  void reset();

 private:
  // Shard storage is segmented: the first kShardSeg slots (every slot a
  // <= 64-thread run ever touches) are embedded in the Site, so the common
  // case stays a single indexed access with no extra indirection branch
  // mispredicts; the remaining kMaxThreads - kShardSeg slots live in
  // lazily-allocated segments, so a site costs ~8 KB until a run actually
  // exceeds 64 live threads (eagerly sizing every site for 1024 threads
  // would be ~128 KB per site).
  static constexpr unsigned kShardSeg = 64;
  static constexpr unsigned kShardSegs = kMaxThreads / kShardSeg;

  inline SiteShard& shard();  ///< this thread's shard (registry.cpp)
  SiteShard& shard_at(unsigned slot);
  /// Cold path: materialize extension segment `seg` (registry.cpp).
  SiteShard* ext_segment(unsigned seg);
  /// Visit every materialized shard of `self` (a const or mutable Site).
  template <class Self, class F>
  static void for_each_shard(Self& self, F&& f);

  std::string name_;
  unsigned id_;
  bool facade_;
  SiteShard shards_[kShardSeg];
  std::atomic<SiteShard*> ext_[kShardSegs - 1]{};
};

/// One registry sample: every site's counters in registration order and,
/// when asked for, the latency histogram merged over every site and path.
struct Snapshot {
  std::vector<Site*> sites;
  std::vector<PrefixStats> counts;  ///< parallel to `sites`
  std::unique_ptr<obs::Histogram> latency;  ///< raw ticks; null if not taken
};

class Registry {
 public:
  /// Sites the table holds; interning one more throws std::length_error.
  static constexpr unsigned kSiteCapacity = 1024;

  static Registry& instance();

  /// Find-or-create the site named `name`. Pointers are stable for the
  /// process lifetime (sites are never removed).
  Site* intern(std::string_view name);
  /// intern() for the native HTM facade's site: marks the site it creates
  /// (Site::facade()).
  Site* intern_facade(std::string_view name);

  /// Stable pointers to every registered site, in registration order.
  std::vector<Site*> sites();

  /// Lock-free, allocation-free reads of the site table (the fatal-signal
  /// flight dump reads it): sites [0, site_count()) are published.
  unsigned site_count() const {
    return count_.load(std::memory_order_acquire);
  }
  const Site& site(unsigned id) const { return *sites_[id]; }

  /// Sum over every site but the facade's (Site::facade()): each
  /// transaction counted once.
  PrefixStats totals();

  /// Counters of every site, plus the merged latency when `latency` is set.
  Snapshot snapshot(bool latency);

  /// Zero every site's counters (tests / between measurement phases).
  void reset_all();

  /// Human-readable per-site table (the PTO_TELEMETRY_REPORT exit dump).
  void report(std::ostream& os);

 private:
  Registry() = default;
  Site* find_or_create(std::string_view name, bool facade);
  std::mutex mu_;  ///< serializes intern(); readers never take it
  /// Entries [0, count_) are written before count_'s release store.
  Site* sites_[kSiteCapacity] = {};
  std::atomic<unsigned> count_{0};
};

/// The flight-recorder ring (obs/flight.h) of native slot `slot`, kept with
/// the slot lease: the slot's first recording owner allocates it and later
/// owners reuse it, so rings are bounded by live threads. Null until then.
/// Constant-initialized, so the fatal-signal dump may read it at any time.
std::atomic<obs::FlightRing*>& slot_flight_ring(unsigned slot);

/// Registry::instance().totals(), and its delta against an earlier snapshot.
PrefixStats registry_totals();
PrefixStats registry_delta(const PrefixStats& before);

}  // namespace pto::telemetry

/// Interns a telemetry site once per call site and returns the cached
/// Site*. Usable in any expression context, including template headers.
#define PTO_TELEMETRY_SITE(name)                             \
  ([]() -> ::pto::telemetry::Site* {                         \
    static ::pto::telemetry::Site* const pto_site_ =         \
        ::pto::telemetry::Registry::instance().intern(name); \
    return pto_site_;                                        \
  }())
