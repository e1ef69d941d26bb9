// pto::service load generator: deterministic per-thread operation streams
// over a configurable key-popularity model, in the shape of STO's zipfian
// microbenchmarks (test_zipf.cc) and YCSB's core workloads.
//
// Everything here is a pure function of (WorkloadSpec, tid): the stream for
// thread t is byte-identical across runs, across thread counts, and across
// platforms — which is what lets the same spec drive real std::threads in
// bench/svc_kv and virtual threads in simx (the deterministic twin) for
// differential debugging. Key popularity supports uniform, zipfian (exact
// inverse-CDF sampling, so tests can chi-square it against the analytic
// distribution), and hot-set (a fraction of the keyspace absorbing a
// configured share of accesses).
//
// Closed-loop mode issues the next op as soon as the previous one returns;
// open-loop mode pre-draws Poisson arrival times and the worker launches each
// op at its scheduled instant, so recorded latency includes queueing delay
// (the standard coordinated-omission-free setup).
//
// Environment knobs (ServiceOptions::from_env; malformed values warn once
// via pto::warn_once and fall back to defaults — never silently):
//   PTO_SVC_SHARDS    shard count (default 4)
//   PTO_SVC_STRUCT    per-shard structure: skip|hash (default skip)
//   PTO_SVC_PIN       0|1 pin worker threads round-robin to cores (default 1)
//   PTO_SVC_KEYS      keyspace size (default 65536)
//   PTO_SVC_DIST      uniform|zipf|hotset (default zipf)
//   PTO_SVC_SKEW      zipf theta in [0,1) (default 0.99, the YCSB zipfian)
//   PTO_SVC_HOTFRAC   hotset: hot fraction of the keyspace (default 0.01)
//   PTO_SVC_HOTPROB   hotset: probability an op is hot (default 0.9)
//   PTO_SVC_READPCT   get percentage (default 50)
//   PTO_SVC_PUTPCT    put percentage (default 25; remainder = del)
//   PTO_SVC_OPENLOOP  per-thread Poisson arrival rate, ops/sec; 0 = closed
//   PTO_SVC_SEED      workload seed (default 42)
#pragma once

#include <cstdint>
#include <vector>

#include "benchutil/zipf.h"
#include "common/rng.h"

namespace pto::service {

enum class Dist { kUniform, kZipf, kHotset };
enum class Structure { kSkiplist, kHash };

enum class OpKind : std::uint8_t { kGet, kPut, kDel };

struct Op {
  OpKind kind;
  std::int64_t key;
};

struct WorkloadSpec {
  std::uint64_t keyspace = 1u << 16;
  Dist dist = Dist::kZipf;
  double theta = 0.99;         ///< zipf skew; 0 degenerates to uniform
  double hot_fraction = 0.01;  ///< hotset: fraction of keyspace that is hot
  double hot_prob = 0.9;       ///< hotset: probability an op is hot
  unsigned get_pct = 50;
  unsigned put_pct = 25;  ///< remainder after get+put is del
  std::uint64_t seed = 42;
  double openloop_rate = 0.0;  ///< per-thread arrivals/sec; 0 = closed loop
};

/// Per-thread stream seed: depends only on (seed, tid, salt), so streams are
/// stable under thread-count changes and independent between the key stream
/// and the arrival-time stream.
std::uint64_t derive_stream_seed(std::uint64_t seed, unsigned tid,
                                 std::uint64_t salt = 0);

/// Key-popularity sampler for one WorkloadSpec. Zipf uses the exact
/// inverse-CDF (benchutil/zipf.h), so sampled frequencies converge to the
/// analytic pmf — tests chi-square this.
class KeySampler {
 public:
  explicit KeySampler(const WorkloadSpec& spec);

  std::int64_t next(SplitMix64& rng) const;

  /// Hotset geometry (valid for Dist::kHotset): keys [0, hot_keys()) are hot.
  std::uint64_t hot_keys() const { return hot_n_; }

 private:
  Dist dist_;
  std::uint64_t n_;
  std::uint64_t hot_n_ = 0;
  double hot_prob_ = 0.0;
  bench::ZipfGenerator zipf_;  ///< trivial (n=1) unless dist is zipf
};

/// Deterministic op-stream factory; one instance amortizes the zipf CDF
/// across every thread's fill.
class OpStream {
 public:
  explicit OpStream(const WorkloadSpec& spec) : spec_(spec), keys_(spec) {}

  const WorkloadSpec& spec() const { return spec_; }

  /// Append `n` ops of thread `tid`'s stream to `out`.
  void fill(unsigned tid, std::uint64_t n, std::vector<Op>& out) const;

  /// Append `n` open-loop inter-arrival gaps (nanoseconds, exponential with
  /// mean 1e9/openloop_rate) of thread `tid`'s arrival process to `out`.
  /// Drawn from an independent stream so the op sequence is identical in
  /// open- and closed-loop runs of the same spec.
  void fill_arrivals_ns(unsigned tid, std::uint64_t n,
                        std::vector<std::uint64_t>& out) const;

 private:
  WorkloadSpec spec_;
  KeySampler keys_;
};

/// Full service configuration for bench/svc_kv and the native tests.
struct ServiceOptions {
  unsigned shards = 4;
  Structure structure = Structure::kSkiplist;
  bool pin = true;     ///< pin runtime workers round-robin to cores
  WorkloadSpec workload;

  /// Apply PTO_SVC_* environment overrides. Malformed or out-of-range
  /// values keep the default and warn once per variable (pto::warn_once),
  /// mirroring RunnerOptions::from_env.
  static ServiceOptions from_env();
};

const char* structure_name(Structure s);
const char* dist_name(Dist d);

}  // namespace pto::service
