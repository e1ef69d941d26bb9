// kvbench: the repo benchmark's program. One invocation runs one workload,
// prints every metric by name and unit, and ends with one JSON line:
//
//   kvbench --workload <kv-skip-zipf|kv-hash-read|sim-kv-twin>
//           [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 arms the telemetry registry, records spans around the calls into
// each layer, and reports the per-layer metrics. The exit code is nonzero
// when an output check fails (the JSON line then says "correct": false) or
// the arguments are invalid (no JSON line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "telemetry/registry.h"

namespace {

using perfbench::Args;

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const char* k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "kvbench: %s needs a value\n", k);
      return false;
    }
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0 && parse_u64(v, n)) {
      a.seed = n;
    } else if (std::strcmp(k, "--seconds") == 0 && parse_u64(v, n) &&
               n >= 1 && n <= 600) {
      a.seconds = static_cast<double>(n);
    } else if (std::strcmp(k, "--trace") == 0 && parse_u64(v, n) && n <= 1) {
      a.trace = n == 1;
    } else if (std::strcmp(k, "--trace-out") == 0) {
      a.trace_out = v;
    } else {
      std::fprintf(stderr, "kvbench: bad argument %s %s\n", k, v);
      return false;
    }
  }
  if (a.workload != "kv-skip-zipf" && a.workload != "kv-hash-read" &&
      a.workload != "sim-kv-twin") {
    std::fprintf(stderr,
                 "kvbench: --workload must be kv-skip-zipf, kv-hash-read or "
                 "sim-kv-twin\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;
  // The benchmark arms the registry itself, and only in the traced run.
  pto::telemetry::set_enabled(false);

  perfbench::Result r;
  perfbench::host_record(a, a.trace ? &r : nullptr);
  if (a.workload == "sim-kv-twin") {
    perfbench::run_sim_twin(a, r);
  } else {
    perfbench::run_kv(a, r);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& p : r.phases) {
    attempted += p.attempted;
    failed += perfbench::failed_ops(p);
  }
  bool correct = failed == 0 && attempted > 0;
  for (const auto& m : r.metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED: %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("fail_ratio %.6g (%llu failed of %llu attempted, %zu checks)\n",
              perfbench::fail_ratio(r.phases),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), r.phases.size());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
