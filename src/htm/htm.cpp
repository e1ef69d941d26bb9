#include "htm/htm.h"

#include <cstdlib>
#include <cstring>

#if defined(PTO_HAVE_RTM)
#include <cpuid.h>
#endif

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
  if (const char* env = std::getenv("PTO_HTM")) {
    if (std::strcmp(env, "soft") == 0) return Backend::kSoft;
#if defined(PTO_HAVE_RTM)
    if (std::strcmp(env, "rtm") == 0) return Backend::kRTM;
#endif
  }
#if defined(PTO_HAVE_RTM)
  if (cpu_has_rtm() && rtm_actually_commits()) return Backend::kRTM;
#endif
  return Backend::kSoft;
}

}  // namespace detail

Backend backend() {
  static const Backend b = detail::probe_backend();
  return b;
}

namespace detail {
telemetry::Site* native_site() {
  static telemetry::Site* const s = telemetry::Registry::instance().intern(
      backend() == Backend::kRTM ? "htm.rtm" : "htm.soft");
  return s;
}
}  // namespace detail

unsigned char last_user_code() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) return detail::tls_rtm_user_code;
#endif
  return softhtm::last_user_code();
}

}  // namespace pto::htm
