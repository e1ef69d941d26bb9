#include "htm/htm.h"

#if defined(PTO_HAVE_RTM)
#include <cpuid.h>
#endif

#include "common/env.h"
#include "common/warn.h"
#include "telemetry/registry.h"

namespace pto::htm {

namespace detail {

#if defined(PTO_HAVE_RTM)
thread_local unsigned char tls_rtm_user_code = TX_CODE_NONE;

namespace {
bool cpu_has_rtm() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 11)) != 0;  // CPUID.07H:EBX.RTM
}

/// Some CPUs advertise RTM but always abort (TSX disabled by microcode).
/// Require at least one committed probe transaction before trusting it.
bool rtm_actually_commits() {
  for (int i = 0; i < 16; ++i) {
    unsigned s = _xbegin();
    if (s == _XBEGIN_STARTED) {
      _xend();
      return true;
    }
  }
  return false;
}
}  // namespace
#endif

Backend probe_backend() {
  // -1: probe; 0: soft; 1: rtm, forced even when the probe would refuse it.
  const int forced = env::choice("PTO_HTM", {"soft", "rtm"}, -1);
  if (forced == 0) return Backend::kSoft;
#if defined(PTO_HAVE_RTM)
  const bool commits = cpu_has_rtm() && rtm_actually_commits();
  if (forced == 1 && !commits) {
    warn_once("env.PTO_HTM",
              "PTO_HTM=rtm forced, but RTM never commits on this CPU; every "
              "transaction will abort and take its fallback");
  }
  if (forced == 1 || commits) return Backend::kRTM;
#else
  if (forced == 1) {
    warn_once("env.PTO_HTM",
              "PTO_HTM=rtm, but this build has no RTM support; using soft");
  }
#endif
  return Backend::kSoft;
}

constinit BackendWord g_backend;

Backend publish_backend() {
  // A function-local static: racing first callers wait for the one probe.
  static const Backend b = [] {
    const Backend p = probe_backend();
    g_backend.value.store(static_cast<std::uint8_t>(p),
                          std::memory_order_release);
    return p;
  }();
  return b;
}

telemetry::Site* native_site() {
  static telemetry::Site* const s = telemetry::Registry::instance().intern(
      backend() == Backend::kRTM ? "htm.rtm" : "htm.soft");
  return s;
}
}  // namespace detail

}  // namespace pto::htm
