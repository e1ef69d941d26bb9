#include "service/loadgen.h"

#include <cmath>

#include "common/env.h"
#include "common/warn.h"

namespace pto::service {

namespace {

/// Uniform double in [0, 1) from the top 53 bits of a SplitMix64 draw.
double unit_uniform(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t derive_stream_seed(std::uint64_t seed, unsigned tid,
                                 std::uint64_t salt) {
  // One mixing round per component: adjacent (seed, tid) pairs land far
  // apart, and the arrival stream (salt != 0) is decorrelated from the key
  // stream of the same thread.
  SplitMix64 g(seed ^ (0x9E3779B97F4A7C15ull * (tid + 1)) ^
               (salt * 0xBF58476D1CE4E5B9ull));
  return g.next();
}

KeySampler::KeySampler(const WorkloadSpec& spec)
    : dist_(spec.dist),
      n_(spec.keyspace),
      zipf_(spec.dist == Dist::kZipf ? spec.keyspace : 1,
            spec.dist == Dist::kZipf ? spec.theta : 0.0) {
  if (dist_ == Dist::kHotset) {
    hot_n_ = static_cast<std::uint64_t>(
        std::ceil(spec.hot_fraction * static_cast<double>(n_)));
    if (hot_n_ == 0) hot_n_ = 1;
    if (hot_n_ > n_) hot_n_ = n_;
    hot_prob_ = spec.hot_prob;
  }
}

std::int64_t KeySampler::next(SplitMix64& rng) const {
  switch (dist_) {
    case Dist::kUniform:
      return static_cast<std::int64_t>(rng.next_below(n_));
    case Dist::kZipf:
      return static_cast<std::int64_t>(zipf_.next(rng));
    case Dist::kHotset: {
      // The hot draw consumes one rng value, the key another, regardless of
      // outcome — keeps the stream length per op fixed.
      const bool hot = unit_uniform(rng) < hot_prob_;
      const std::uint64_t cold_n = n_ - hot_n_;
      if (hot || cold_n == 0) {
        return static_cast<std::int64_t>(rng.next_below(hot_n_));
      }
      return static_cast<std::int64_t>(hot_n_ + rng.next_below(cold_n));
    }
  }
  return 0;  // unreachable
}

void OpStream::fill(unsigned tid, std::uint64_t n,
                    std::vector<Op>& out) const {
  SplitMix64 rng(derive_stream_seed(spec_.seed, tid));
  out.reserve(out.size() + n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const unsigned pct = rng.next_percent();
    const OpKind kind = pct < spec_.get_pct                  ? OpKind::kGet
                        : pct < spec_.get_pct + spec_.put_pct ? OpKind::kPut
                                                              : OpKind::kDel;
    out.push_back({kind, keys_.next(rng)});
  }
}

void OpStream::fill_arrivals_ns(unsigned tid, std::uint64_t n,
                                std::vector<std::uint64_t>& out) const {
  SplitMix64 rng(derive_stream_seed(spec_.seed, tid, /*salt=*/0x0A11));
  const double mean_ns =
      spec_.openloop_rate > 0.0 ? 1e9 / spec_.openloop_rate : 0.0;
  out.reserve(out.size() + n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (mean_ns == 0.0) {
      out.push_back(0);
      continue;
    }
    // Inverse-CDF exponential; 1-u keeps the argument strictly positive.
    const double u = unit_uniform(rng);
    out.push_back(
        static_cast<std::uint64_t>(-std::log(1.0 - u) * mean_ns));
  }
}

ServiceOptions ServiceOptions::from_env() {
  ServiceOptions o;
  o.shards = static_cast<unsigned>(
      env::u64("PTO_SVC_SHARDS", o.shards, 1, ~0u));
  o.structure = static_cast<Structure>(env::choice(
      "PTO_SVC_STRUCT", {"skip", "hash"}, static_cast<int>(o.structure)));
  o.pin = env::choice("PTO_SVC_PIN", {"0", "1"}, o.pin ? 1 : 0) == 1;
  WorkloadSpec& w = o.workload;
  w.keyspace = env::u64("PTO_SVC_KEYS", w.keyspace);
  if (w.keyspace < 2) {
    warn_once("env.PTO_SVC_KEYS.min", "PTO_SVC_KEYS=%llu too small; using 2",
              static_cast<unsigned long long>(w.keyspace));
    w.keyspace = 2;
  }
  w.dist = static_cast<Dist>(env::choice(
      "PTO_SVC_DIST", {"uniform", "zipf", "hotset"}, static_cast<int>(w.dist)));
  // theta = 1 divides the harmonic normalization; keep strictly below.
  w.theta = env::f64("PTO_SVC_SKEW", w.theta, 0.0, 0.9999);
  w.hot_fraction = env::f64("PTO_SVC_HOTFRAC", w.hot_fraction, 1e-6, 1.0);
  w.hot_prob = env::f64("PTO_SVC_HOTPROB", w.hot_prob, 0.0, 1.0);
  w.get_pct =
      static_cast<unsigned>(env::u64("PTO_SVC_READPCT", w.get_pct, 0, 100));
  w.put_pct =
      static_cast<unsigned>(env::u64("PTO_SVC_PUTPCT", w.put_pct, 0, 100));
  if (w.get_pct + w.put_pct > 100) {
    warn_once("env.PTO_SVC_MIX",
              "PTO_SVC_READPCT=%u + PTO_SVC_PUTPCT=%u exceed 100; using "
              "defaults 50/25",
              w.get_pct, w.put_pct);
    w.get_pct = 50;
    w.put_pct = 25;
  }
  w.openloop_rate = env::f64("PTO_SVC_OPENLOOP", w.openloop_rate, 0.0, 1e9);
  w.seed = env::u64("PTO_SVC_SEED", w.seed);
  return o;
}

const char* structure_name(Structure s) {
  return s == Structure::kSkiplist ? "skip" : "hash";
}

const char* dist_name(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kZipf: return "zipf";
    case Dist::kHotset: return "hotset";
  }
  return "?";
}

}  // namespace pto::service
