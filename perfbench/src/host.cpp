// Host record and the pinned spin probe. Everything comes from system calls
// and CPUID, so the benchmark reads no file outside its checkout.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/buildinfo.h"
#include "htm/htm.h"
#include "service/runtime.h"

namespace perfbench {
namespace {

unsigned allowed_cpus() {
  cpu_set_t s;
  CPU_ZERO(&s);
  if (sched_getaffinity(0, sizeof(s), &s) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&s)));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char s[49] = {};
  std::memcpy(s, regs, 48);
  std::string m(s);
  m.erase(0, m.find_first_not_of(' '));
  return m;
}

long cache_kib(int name) {
  const long v = sysconf(name);
  return v > 0 ? v / 1024 : 0;
}

/// Gaps longer than this in a spinning thread's clock reads are time the
/// thread did not run (preemption, host steal, interrupts).
constexpr std::uint64_t kGapNs = 20'000;
constexpr double kProbeSeconds = 0.2;
constexpr std::uint64_t kChainSteps = 20'000'000;

}  // namespace

unsigned client_threads() { return std::min(4u, allowed_cpus()); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void host_record(const Args& a, Result* into) {
  const unsigned ncpu = allowed_cpus();
  std::printf(
      "host: nproc %u, htm %s, git %s, cpu \"%s\", L2 %ld KiB, L3 %ld KiB, "
      "workload %s, seed %llu\n",
      ncpu,
      pto::htm::backend() == pto::htm::Backend::kRTM ? "rtm" : "soft",
      pto::build_git_sha(), cpu_model().c_str(),
      cache_kib(_SC_LEVEL2_CACHE_SIZE), cache_kib(_SC_LEVEL3_CACHE_SIZE),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed));

  // One pinned spinner per CPU: the share of time lost in gaps and the
  // longest gap say how noisy this run's host was. Before spinning, each
  // times a dependent multiply-add chain, whose ns per step tracks the
  // clock speed the host gives the VM.
  std::vector<std::uint64_t> lost(ncpu, 0);
  std::vector<std::uint64_t> worst(ncpu, 0);
  std::vector<double> step_ns(ncpu, 0);
  std::vector<std::uint64_t> sink(ncpu, 0);
  {
    pto::service::Runtime rt({ncpu, true});
    rt.run([&](unsigned t) {
      std::uint64_t x = t + 1;
      const std::uint64_t c0 = now_ns();
      for (std::uint64_t i = 0; i < kChainSteps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      step_ns[t] = static_cast<double>(now_ns() - c0) / kChainSteps;
      sink[t] = x;
      const std::uint64_t t0 = now_ns();
      const auto end = t0 + static_cast<std::uint64_t>(kProbeSeconds * 1e9);
      std::uint64_t prev = t0;
      for (std::uint64_t now = t0; now < end; now = now_ns()) {
        const std::uint64_t gap = now - prev;
        if (gap > kGapNs) {
          lost[t] += gap;
          worst[t] = std::max(worst[t], gap);
        }
        prev = now;
      }
    });
  }
  std::uint64_t lost_sum = 0;
  std::uint64_t worst_max = 0;
  for (unsigned t = 0; t < ncpu; ++t) {
    lost_sum += lost[t];
    worst_max = std::max(worst_max, worst[t]);
  }
  const double steal_pct =
      100.0 * static_cast<double>(lost_sum) / (kProbeSeconds * 1e9 * ncpu);
  const double stall_ms = static_cast<double>(worst_max) / 1e6;
  double chain = 0;
  for (const double x : step_ns) chain += x / ncpu;
  std::printf(
      "host probe: %.3f%% of spin time lost, longest stall %.3f ms, "
      "%.4f ns per multiply-add step (check %llu)\n",
      steal_pct, stall_ms, chain,
      static_cast<unsigned long long>(sink[0] & 0xff));
  if (into != nullptr) {
    into->add("host.steal_pct", steal_pct, "%");
    into->add("host.stall_max_ms", stall_ms, "ms");
    into->add("host.step_ns", chain, "ns");
  }
}

}  // namespace perfbench
