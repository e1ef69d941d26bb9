// pto::obs core: histogram bucket geometry, quantile accuracy against a
// sorted-vector oracle, merge algebra, the latency-site recording pipeline,
// flight-ring wraparound, and tsc calibration sanity.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/tsc.h"

namespace {

namespace obs = pto::obs;

// ---------------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------------

TEST(Histogram, LinearRegionIsExact) {
  for (std::uint64_t v = 0; v < obs::kHistSub; ++v) {
    EXPECT_EQ(obs::hist_bucket_index(v), v);
    EXPECT_EQ(obs::hist_bucket_lower(static_cast<unsigned>(v)), v);
    EXPECT_EQ(obs::hist_bucket_width(static_cast<unsigned>(v)), 1u);
  }
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  // Every bucket reachable from a 48-bit value: its lower edge maps back to
  // it, its last value maps to it, and one past maps to the next bucket.
  const unsigned last = obs::hist_bucket_index(1ull << 48);
  for (unsigned idx = 0; idx <= last; ++idx) {
    const std::uint64_t lo = obs::hist_bucket_lower(idx);
    const std::uint64_t w = obs::hist_bucket_width(idx);
    EXPECT_EQ(obs::hist_bucket_index(lo), idx) << "lower edge of " << idx;
    EXPECT_EQ(obs::hist_bucket_index(lo + w - 1), idx) << "upper edge of "
                                                       << idx;
    EXPECT_EQ(obs::hist_bucket_index(lo + w), idx + 1) << "past " << idx;
  }
}

TEST(Histogram, IndexIsMonotone) {
  pto::SplitMix64 rng(1);
  std::uint64_t prev_v = 0;
  unsigned prev_idx = obs::hist_bucket_index(0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v =
        prev_v + 1 + rng.next_below(1 + prev_v / 8);  // growing strides
    const unsigned idx = obs::hist_bucket_index(v);
    EXPECT_GE(idx, prev_idx) << "v=" << v;
    EXPECT_LT(idx, obs::kHistBuckets);
    prev_v = v;
    prev_idx = idx;
    if (v > (1ull << 62)) break;
  }
}

TEST(Histogram, ExtremesStayInRange) {
  EXPECT_LT(obs::hist_bucket_index(~0ull), obs::kHistBuckets);
  EXPECT_EQ(obs::hist_bucket_index(0), 0u);
}

// ---------------------------------------------------------------------------
// Quantiles vs a sorted-vector oracle
// ---------------------------------------------------------------------------

std::uint64_t oracle_quantile(std::vector<std::uint64_t> sorted, double q) {
  // Same rank convention as Histogram::quantile: ceil(q*n), 1-based.
  const auto n = static_cast<double>(sorted.size());
  std::uint64_t rank = static_cast<std::uint64_t>(q * n + 0.9999999);
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TEST(Histogram, QuantileWithinOneBucketOfOracle) {
  pto::SplitMix64 rng(7);
  obs::Histogram h;
  std::vector<std::uint64_t> vals;
  // Heavy-tailed mix spanning several tiers, like real op latencies.
  for (int i = 0; i < 50000; ++i) {
    std::uint64_t v = 50 + rng.next_below(400);         // body
    if (rng.next_below(100) < 9) v = 2000 + rng.next_below(30000);  // tail
    if (rng.next_below(1000) < 3) v = 1000000 + rng.next_below(9000000);
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::uint64_t exact = oracle_quantile(vals, q);
    const std::uint64_t est = h.quantile(q);
    const std::uint64_t tol =
        obs::hist_bucket_width(obs::hist_bucket_index(exact));
    EXPECT_LE(est > exact ? est - exact : exact - est, tol)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_EQ(h.total(), vals.size());
  EXPECT_EQ(h.max_value(), vals.back());
}

TEST(Histogram, EmptyAndSingleton) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.summarize().samples, 0u);
  h.record(17);
  for (double q : {0.0, 0.5, 0.999, 1.0}) EXPECT_EQ(h.quantile(q), 17u);
  const obs::HistSummary s = h.summarize();
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.p50, 17u);
  EXPECT_EQ(s.max, 17u);
}

TEST(Histogram, QuantileNeverExceedsObservedMax) {
  // A value in the lower half of a wide bucket: the bucket midpoint lies
  // above it, so an unclamped quantile would report p50 > max (the service
  // open-loop latency stream hit exactly this in multi-ms buckets).
  obs::Histogram h;
  constexpr std::uint64_t kV = 4036431;  // bucket width 131072 at this tier
  h.record(kV);
  for (double q : {0.5, 0.99, 0.999}) EXPECT_LE(h.quantile(q), kV);
  const obs::HistSummary s = h.summarize();
  EXPECT_LE(s.p999, s.max);
  EXPECT_EQ(s.max, kV);

  // Denser case: many samples, every quantile bounded by the global max.
  obs::Histogram d;
  pto::SplitMix64 rng(99);
  std::uint64_t max = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 24);
    max = v > max ? v : max;
    d.record(v);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) EXPECT_LE(d.quantile(q), max);
}

// ---------------------------------------------------------------------------
// Merge algebra
// ---------------------------------------------------------------------------

void fill(obs::Histogram& h, std::uint64_t seed, int n) {
  pto::SplitMix64 rng(seed);
  for (int i = 0; i < n; ++i) h.record(rng.next_below(1u << 20));
}

bool same(const obs::Histogram& a, const obs::Histogram& b) {
  if (a.total() != b.total() || a.max_value() != b.max_value()) return false;
  for (unsigned i = 0; i < obs::kHistBuckets; ++i) {
    if (a.bucket_count(i) != b.bucket_count(i)) return false;
  }
  return true;
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  obs::Histogram a, b, c;
  fill(a, 11, 1000);
  fill(b, 22, 3000);
  fill(c, 33, 500);

  obs::Histogram ab_c;  // (a+b)+c
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  obs::Histogram a_bc;  // a+(b+c)
  {
    obs::Histogram bc;
    bc.merge(b);
    bc.merge(c);
    a_bc.merge(a);
    a_bc.merge(bc);
  }
  obs::Histogram cba;  // c+b+a
  cba.merge(c);
  cba.merge(b);
  cba.merge(a);
  EXPECT_TRUE(same(ab_c, a_bc));
  EXPECT_TRUE(same(ab_c, cba));

  // Merged == recorded-together (the layout is a pure function of the value).
  obs::Histogram direct;
  fill(direct, 11, 1000);
  fill(direct, 22, 3000);
  fill(direct, 33, 500);
  EXPECT_TRUE(same(ab_c, direct));
}

// ---------------------------------------------------------------------------
// Latency-site pipeline (intern / record / merge / reset)
// ---------------------------------------------------------------------------

TEST(LatencySites, RecordMergeResetAcrossThreads) {
  obs::set_hist_on(true);
  obs::reset_latency();
  auto& reg = pto::telemetry::Registry::instance();
  obs::Site* site = reg.intern("test_obs.site_a");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(reg.intern("test_obs.site_a"), site)
      << "intern must be idempotent";

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([site, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Odd samples pretend the op fell back.
        obs::record_latency(site, i % 2 == 1, 100 + static_cast<unsigned>(t));
      }
    });
  }
  for (auto& th : ts) th.join();

  std::vector<obs::LatencySiteSummary> sites;
  const obs::MergedLatency m = obs::merged_latency(&sites);
  EXPECT_EQ(m.all.samples, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.fast.samples, m.all.samples / 2);
  EXPECT_EQ(m.fallback.samples, m.all.samples / 2);
  EXPECT_GT(m.all.p50, 0u);
  EXPECT_GE(m.all.p99, m.all.p50);
  ASSERT_FALSE(sites.empty());
  bool found = false;
  for (const auto& s : sites) {
    if (s.site == "test_obs.site_a") {
      found = true;
      EXPECT_EQ(s.fast.samples + s.fallback.samples, m.all.samples);
    }
  }
  EXPECT_TRUE(found);

  obs::reset_latency();
  const obs::MergedLatency empty = obs::merged_latency(nullptr);
  EXPECT_EQ(empty.all.samples, 0u);
  obs::set_hist_on(false);
}

TEST(LatencySites, OpTimerClassifiesFallback) {
  obs::set_hist_on(true);
  obs::reset_latency();
  obs::Site* site =
      pto::telemetry::Registry::instance().intern("test_obs.optimer");
  {
    obs::OpTimer t(site);  // no fallback -> fast
  }
  {
    obs::OpTimer t(site);
    obs::note_fallback();
  }
  const obs::MergedLatency m = obs::merged_latency(nullptr);
  EXPECT_EQ(m.fast.samples, 1u);
  EXPECT_EQ(m.fallback.samples, 1u);
  obs::reset_latency();
  obs::set_hist_on(false);
}

/// Resident set size in bytes, from /proc/self/statm.
std::uint64_t rss_bytes() {
  unsigned long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%lu %lu", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(LatencySites, NativeThreadChurnKeepsStorageBounded) {
  // Bench runners start fresh worker threads for every trial. A thread
  // returns its telemetry slot when it exits, so histogram storage is
  // bounded by live threads, not by every thread ever created (one
  // fast/fallback pair per (thread, site) would be ~60 MB here).
  obs::set_hist_on(true);
  obs::reset_latency();
  obs::Site* site =
      pto::telemetry::Registry::instance().intern("test_obs.churn");
  constexpr int kWaves = 512;
  constexpr int kWidth = 4;
  auto wave = [site] {
    std::vector<std::thread> ts;
    for (int t = 0; t < kWidth; ++t) {
      ts.emplace_back([site] { obs::record_latency(site, false, 100); });
    }
    for (auto& th : ts) th.join();
  };
  wave();  // first-use allocations (thread stacks, slot pool) settle here
  const std::uint64_t rss0 = rss_bytes();
  for (int w = 1; w < kWaves; ++w) wave();
  const std::uint64_t rss1 = rss_bytes();

  const obs::MergedLatency m = obs::merged_latency(nullptr);
  EXPECT_EQ(m.all.samples, static_cast<std::uint64_t>(kWaves * kWidth));
  EXPECT_LT(rss1 - std::min(rss0, rss1), 16u << 20)
      << "RSS grew from " << rss0 << " to " << rss1 << " bytes";
  obs::reset_latency();
  obs::set_hist_on(false);
}

TEST(LatencySites, ThreadsBeyondSlotCapacityCountButRecordNoLatency) {
  // More live threads than slots: the excess share a slot for their
  // (atomic) counters, record no latency, and the registry warns once.
  obs::set_hist_on(true);
  obs::reset_latency();
  pto::telemetry::set_enabled(true);
  obs::Site* site =
      pto::telemetry::Registry::instance().intern("test_obs.overflow");
  constexpr unsigned kThreads = pto::kMaxThreads + 16;
  std::atomic<unsigned> recorded{0};
  std::atomic<bool> release{false};
  ::testing::internal::CaptureStderr();
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      site->count(pto::telemetry::kEventCommit, 0);
      obs::record_latency(site, false, 100);
      recorded.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (recorded.load() < kThreads) std::this_thread::yield();
  release.store(true);
  for (auto& th : ts) th.join();
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(site->snapshot().commits, kThreads);
  const obs::MergedLatency m = obs::merged_latency(nullptr);
  EXPECT_LE(m.all.samples, pto::kMaxThreads);
  EXPECT_GE(m.all.samples, pto::kMaxThreads - 8u);  // a few held elsewhere
  EXPECT_NE(err.find("live threads"), std::string::npos) << err;
  obs::reset_latency();
  obs::set_hist_on(false);
}

// ---------------------------------------------------------------------------
// Flight ring
// ---------------------------------------------------------------------------

TEST(FlightRing, CapacityRoundsUpToPow2Min64) {
  EXPECT_EQ(obs::FlightRing(1).capacity(), 64u);
  EXPECT_EQ(obs::FlightRing(64).capacity(), 64u);
  EXPECT_EQ(obs::FlightRing(65).capacity(), 128u);
  EXPECT_EQ(obs::FlightRing(1000).capacity(), 1024u);
}

TEST(FlightRing, WraparoundKeepsNewestInOrder) {
  obs::FlightRing ring(64);
  ASSERT_EQ(ring.capacity(), 64u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ring.push(/*tsc=*/i, /*site=*/static_cast<std::uint16_t>(i & 0xffff),
              /*event=*/pto::telemetry::kEventAttempt,
              /*arg=*/static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ring.total_recorded(), 1000u);
  ASSERT_EQ(ring.size(), 64u);
  for (std::uint32_t i = 0; i < ring.size(); ++i) {
    const obs::FlightRec& r = ring.at(i);
    const std::uint64_t want = 1000 - 64 + i;  // oldest surviving first
    EXPECT_EQ(r.tsc, want);
    EXPECT_EQ(r.arg, static_cast<std::uint32_t>(want));
    EXPECT_EQ(r.event, pto::telemetry::kEventAttempt);
  }
}

TEST(FlightRing, PartialFillReturnsAll) {
  obs::FlightRing ring(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push(i, 0, pto::telemetry::kEventCommit, 0);
  }
  ASSERT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(ring.at(i).tsc, i);
}

// ---------------------------------------------------------------------------
// TSC calibration
// ---------------------------------------------------------------------------

TEST(Tsc, CalibrationIsSane) {
  EXPECT_GT(obs::ticks_per_sec(), 0u);
  EXPECT_EQ(obs::ticks_to_ns(0), 0u);
  // One second of ticks converts to ~1e9 ns (exact on the fallback clock,
  // within calibration error on rdtsc).
  const std::uint64_t ns = obs::ticks_to_ns(obs::ticks_per_sec());
  EXPECT_GT(ns, 900000000u);
  EXPECT_LT(ns, 1100000000u);
}

TEST(Tsc, ElapsedTicksConvertPlausibly) {
  const std::uint64_t t0 = obs::now_ticks();
  const std::uint64_t w0 = obs::steady_ns();
  while (obs::steady_ns() - w0 < 2000000) {  // spin 2 ms
  }
  const std::uint64_t dt_ns = obs::ticks_to_ns(obs::now_ticks() - t0);
  EXPECT_GT(dt_ns, 1000000u);    // > 1 ms
  EXPECT_LT(dt_ns, 500000000u);  // < 0.5 s
}

}  // namespace
