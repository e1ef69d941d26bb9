#include "obs/obs.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pto::obs {

namespace detail {

namespace {
bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::uint64_t env_sample_mask() {
  const char* v = std::getenv("PTO_OBS_SAMPLE");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  unsigned long k = std::strtoul(v, &end, 10);
  if (end == v || *end != '\0' || k == 0) {
    std::fprintf(stderr,
                 "[pto] warning: ignoring invalid PTO_OBS_SAMPLE='%s' "
                 "(want a positive sample period)\n",
                 v);
    return 0;
  }
  return std::bit_ceil(static_cast<std::uint64_t>(k)) - 1;
}
}  // namespace

std::uint64_t g_sample_mask = env_sample_mask();
thread_local std::uint64_t tls_op_seq = 0;
thread_local std::uint64_t tls_fallbacks = 0;

}  // namespace detail

const bool g_hist_env = [] {
  if (detail::env_truthy("PTO_OBS")) set_hist_on(true);
  return true;
}();

HistSummary to_ns(const Histogram& h) {
  HistSummary s = h.summarize();
  s.p50 = ticks_to_ns(s.p50);
  s.p90 = ticks_to_ns(s.p90);
  s.p99 = ticks_to_ns(s.p99);
  s.p999 = ticks_to_ns(s.p999);
  s.max = ticks_to_ns(s.max);
  return s;
}

void reset_latency() {
  for (Site* s : telemetry::Registry::instance().sites()) s->reset_latency();
}

MergedLatency merged_latency(std::vector<LatencySiteSummary>* out_sites) {
  Histogram all_fast, all_fallback, all;
  if (out_sites != nullptr) out_sites->clear();
  for (Site* s : telemetry::Registry::instance().sites()) {
    Histogram fast, fallback;
    s->merge_latency(fast, fallback);
    if (fast.total() == 0 && fallback.total() == 0) continue;
    all_fast.merge(fast);
    all_fallback.merge(fallback);
    if (out_sites != nullptr) {
      out_sites->push_back({s->name(), to_ns(fast), to_ns(fallback)});
    }
  }
  all.merge(all_fast);
  all.merge(all_fallback);
  return {to_ns(all), to_ns(all_fast), to_ns(all_fallback)};
}

}  // namespace pto::obs
