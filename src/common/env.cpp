#include "common/env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/warn.h"

namespace pto::env {

namespace {

void invalid(const char* name, const char* value, const std::string& want,
             const std::string& dflt) {
  const std::string key = std::string("env.") + name;
  warn_once(key.c_str(), "ignoring invalid %s='%s' (want %s); using default %s",
            name, value, want.c_str(), dflt.c_str());
}

}  // namespace

const char* str(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

bool flag(const char* name) {
  const char* v = str(name);
  return v != nullptr && std::strcmp(v, "0") != 0;
}

std::uint64_t u64(const char* name, std::uint64_t dflt, std::uint64_t lo,
                  std::uint64_t hi) {
  const char* v = str(name);
  if (v == nullptr) return dflt;
  std::uint64_t n = 0;
  bool ok = true;
  for (const char* p = v; ok && *p != '\0'; ++p) {
    const unsigned d = static_cast<unsigned>(*p - '0');
    ok = d <= 9 && d <= hi && n <= (hi - d) / 10;  // n * 10 + d <= hi
    n = n * 10 + d;
  }
  if (ok && n >= lo) return n;
  std::string want =
      lo == 1 && hi == std::numeric_limits<std::uint64_t>::max()
          ? "a positive integer"
          : "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]";
  invalid(name, v, want, std::to_string(dflt));
  return dflt;
}

double f64(const char* name, double dflt, double lo, double hi) {
  const char* v = str(name);
  if (v == nullptr) return dflt;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (*end == '\0' && std::isfinite(x) && x >= lo && x <= hi) return x;
  char want[80], d[32];
  std::snprintf(want, sizeof want, "a number in [%g, %g]", lo, hi);
  std::snprintf(d, sizeof d, "%g", dflt);
  invalid(name, v, want, d);
  return dflt;
}

int choice(const char* name, std::initializer_list<const char*> options,
           int dflt) {
  const char* v = str(name);
  if (v == nullptr) return dflt;
  std::string want;
  int i = 0;
  for (const char* o : options) {
    if (std::strcmp(v, o) == 0) return i;
    want += i++ == 0 ? "" : "|";
    want += o;
  }
  invalid(name, v, want, dflt < 0 ? "(unset)" : options.begin()[dflt]);
  return dflt;
}

}  // namespace pto::env
