// Sharded KV service benchmark — the end-to-end native workload: real
// std::threads on the pto::service::Runtime (pinned round-robin over allowed
// CPUs), per-shard skiplist or hashtable instances behind the ShardedKV
// router, zipf/uniform/hotset key popularity from the deterministic load
// generator, closed- or open-loop issue.
//
// Two series per run: the PTO-accelerated ops and the plain lock-free
// baseline, both over the same shard/workload geometry so the series labels
// carry the full configuration ("skip/pto sh=4 z=0.99"). Throughput is
// best-of-trials wall clock; with PTO_OBS=1 each BenchPoint carries
// p50/p90/p99/p999 per-op latency split fast/fallback (open-loop latency is
// measured from the op's *scheduled* Poisson arrival, so queueing delay is
// included — no coordinated omission).
//
// Configuration: PTO_BENCH_* (threads sweep, ops, trials — benchutil/runner)
// plus PTO_SVC_* (shards, structure, key popularity, mix, open-loop
// rate — service/loadgen.h documents the full list).
//
// Output: figure table on stdout, svc_kv.csv, BENCH_svc.json (the host's
// nproc, HTM backend and git sha, then one point per series x thread count;
// tools/speedgate.py svc gates CI on it against the merge-base's build), and
// schema-v2 BenchPoints on PTO_STATS.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/native_runner.h"
#include "benchutil/series.h"
#include "common/buildinfo.h"
#include "htm/htm.h"
#include "obs/obs.h"
#include "obs/tsc.h"
#include "platform/native_platform.h"
#include "service/loadgen.h"
#include "service/runtime.h"
#include "service/shard.h"

namespace {

using pto::NativePlatform;
namespace pb = pto::bench;
namespace svc = pto::service;

struct PointRec {
  std::string series;
  unsigned threads;
  double ops_per_sec;
};

/// Build the per-trial fixture for one measured point. Op streams and
/// open-loop arrival gaps are drawn once per point, outside every timed
/// section — stream generation (zipf inverse-CDF lookups) must not pollute
/// the measured service path.
template <class A>
std::function<std::function<void(unsigned, std::uint64_t)>()> fixture(
    const svc::ServiceOptions& so, A adapter, const svc::SvcSites& sites,
    unsigned threads, std::uint64_t ops_per_thread) {
  using KV = svc::ShardedKV<NativePlatform, A>;

  auto streams = std::make_shared<std::vector<std::vector<svc::Op>>>(threads);
  auto gaps =
      std::make_shared<std::vector<std::vector<std::uint64_t>>>();  // ticks
  const svc::OpStream os(so.workload);
  for (unsigned t = 0; t < threads; ++t) {
    os.fill(t, ops_per_thread, (*streams)[t]);
  }
  const bool openloop = so.workload.openloop_rate > 0.0;
  if (openloop) {
    const double ticks_per_ns =
        static_cast<double>(pto::obs::ticks_per_sec()) * 1e-9;
    gaps->resize(threads);
    std::vector<std::uint64_t> ns_gaps;
    for (unsigned t = 0; t < threads; ++t) {
      ns_gaps.clear();
      os.fill_arrivals_ns(t, ops_per_thread, ns_gaps);
      (*gaps)[t].reserve(ns_gaps.size());
      for (const std::uint64_t g : ns_gaps) {
        (*gaps)[t].push_back(
            static_cast<std::uint64_t>(static_cast<double>(g) * ticks_per_ns));
      }
    }
  }

  return [so, adapter, sites, streams, gaps, openloop] {
    auto kv = std::make_shared<KV>(so.shards, adapter);
    {
      // Prefill half the keyspace (even keys) so gets hit ~50% and the
      // del/put churn keeps the size stationary.
      auto c = kv->make_client();
      for (std::uint64_t k = 0; k < so.workload.keyspace; k += 2) {
        c.put(static_cast<std::int64_t>(k));
      }
    }
    return [kv, so, sites, streams, gaps, openloop](unsigned tid,
                                                    std::uint64_t ops) {
      const std::vector<svc::Op>& st = (*streams)[tid];
      if (openloop) {
        auto client = kv->make_client();
        const std::vector<std::uint64_t>& g = (*gaps)[tid];
        std::uint64_t sched = pto::obs::now_ticks();
        for (std::uint64_t i = 0; i < ops; ++i) {
          const svc::Op& op = st[i % st.size()];
          sched += g[i % g.size()];
          while (pto::obs::now_ticks() < sched) {
          }
          pto::obs::OpTimer t(sites.of(op.kind), sched);
          client.exec(op);
        }
      } else {
        auto client = kv->make_client();
        for (std::uint64_t i = 0; i < ops; ++i) {
          const svc::Op& op = st[i % st.size()];
          pto::obs::OpTimer t(sites.of(op.kind));
          client.exec(op);
        }
      }
    };
  };
}

}  // namespace

int main() {
  const pb::RunnerOptions opts = pb::RunnerOptions::from_env();
  const svc::ServiceOptions so = svc::ServiceOptions::from_env();
  // Calibrate the tick clock before any timed section (first call spins).
  (void)pto::obs::ticks_per_sec();
  const svc::SvcSites sites = svc::SvcSites::intern();

  pb::Figure fig;
  fig.id = "svc_kv";
  fig.title = "Sharded KV service (real threads, wall-clock)";
  fig.xs = pb::sweep_threads(opts);

  char geo[96];
  if (so.workload.dist == svc::Dist::kZipf) {
    std::snprintf(geo, sizeof(geo), " sh=%u z=%.2f", so.shards,
                  so.workload.theta);
  } else {
    std::snprintf(geo, sizeof(geo), " sh=%u %s", so.shards,
                  svc::dist_name(so.workload.dist));
  }

  std::vector<PointRec> recs;
  const struct {
    const char* tag;
    bool pto;
  } series[] = {{"/pto", true}, {"/lf", false}};
  for (const auto& s : series) {
    const std::string name =
        std::string(svc::structure_name(so.structure)) + s.tag + geo;
    pb::Series& out = fig.add_series(name);
    for (const int threads : fig.xs) {
      const auto nthreads = static_cast<unsigned>(threads);
      svc::Runtime rt({nthreads, so.pin});
      double ops_per_ms = 0.0;
      if (so.structure == svc::Structure::kSkiplist) {
        ops_per_ms = pb::native_measure_point(
            opts, rt,
            fixture(so, svc::SkipAdapter<NativePlatform>{s.pto}, sites,
                    nthreads, opts.ops_per_thread),
            fig.id, name);
      } else {
        using Mode = pto::FSetHash<NativePlatform>::Mode;
        ops_per_ms = pb::native_measure_point(
            opts, rt,
            fixture(so,
                    svc::HashAdapter<NativePlatform>{s.pto ? Mode::kPto
                                                           : Mode::kLockfree},
                    sites, nthreads, opts.ops_per_thread),
            fig.id, name);
      }
      out.y.push_back(ops_per_ms);
      recs.push_back({name, nthreads, ops_per_ms * 1000.0});
      std::cerr << "  " << name << " t=" << threads << " done\r" << std::flush;
    }
    std::cerr << "                                                  \r";
  }

  fig.print(std::cout);
  fig.write_csv("svc_kv.csv");

  std::ofstream json("BENCH_svc.json");
  json << "{\"bench\":\"svc_kv\",\"nproc\":" << svc::Runtime::allowed_cpus()
       << ",\"htm_backend\":\""
       << (pto::htm::backend() == pto::htm::Backend::kRTM ? "rtm" : "soft")
       << "\",\"git_sha\":\"" << pto::build_git_sha()
       << "\",\"shards\":" << so.shards << ",\"struct\":\""
       << svc::structure_name(so.structure) << "\",\"dist\":\""
       << svc::dist_name(so.workload.dist) << "\",\"theta\":"
       << so.workload.theta << ",\"openloop_rate\":" << so.workload.openloop_rate << ",\"points\":[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PointRec& r = recs[i];
    json << (i ? "," : "") << "{\"series\":\"" << r.series
         << "\",\"threads\":" << r.threads << ",\"shards\":" << so.shards
         << ",\"ops_per_sec\":" << r.ops_per_sec << "}";
  }
  json << "]}\n";
  std::cout << "CSV written to svc_kv.csv; JSON written to BENCH_svc.json\n";
  return 0;
}
