// Shared declarations of kvbench: command-line arguments, the
// result a workload fills in, and the entry point of each part.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace pto::service {
class Runtime;
}

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;  ///< WorkloadSpec's default seed
  double seconds = 45;      ///< measured time of one run
  bool trace = false;       ///< traced run: per-layer metrics instead of e2e
  std::string trace_out;    ///< Chrome-trace JSON path ("" = none)
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<PhaseLedger> phases;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Client threads of the multi-threaded phases: 4, or fewer on smaller hosts.
unsigned client_threads();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Print the host record (nproc, HTM backend, sha, CPU, caches, seed) and
/// run the pinned spin probe; with `into` set, add the host.* metrics.
void host_record(const Args& a, Result* into);

/// kv-skip-zipf and kv-hash-read: the native service path.
void run_kv(const Args& a, Result& r);

/// sim-kv-twin: the kv-skip-zipf spec replayed on simx.
void run_sim_twin(const Args& a, Result& r);

/// Traced run only: the htm and reclaim probes (per-layer metrics), at 1
/// thread (worker 0 of rt) and at every worker of rt.
void run_probes(pto::service::Runtime& rt, Tracer& tr, std::uint64_t parent,
                Result& r);

/// Traced run only: per-site prefix and HTM-facade counters from the
/// telemetry registry, as counted since the last Registry::reset_all().
void add_site_counters(Result& r);

/// Traced run only: print per-layer self times and write the Chrome trace.
void finish_trace(const Args& a, const Tracer& tr);

}  // namespace perfbench
