// pto::env — the one reader of the PTO_* environment variables.
//
// Every knob is read through these functions, so all of them agree:
//   * unset and empty both mean absent (the caller's default applies);
//   * an integer is decimal digits only — no sign, no trailing junk — within
//     the stated bounds; a number is a whole-string strtod within bounds;
//   * a value that does not parse warns once under the key "env.<NAME>"
//     (pto::warn_once, so it also reaches the metrics stream), naming the
//     variable, the value and the default used, and the default applies.
//
// Nothing here has static state of its own, so every reader is safe during
// static initialization (most knobs are scanned there).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>

namespace pto::env {

/// The variable's value; nullptr when unset or empty.
const char* str(const char* name);

/// True when set to anything but "0".
bool flag(const char* name);

/// Decimal integer in [lo, hi]; `dflt` (with a warning) otherwise.
std::uint64_t u64(const char* name, std::uint64_t dflt, std::uint64_t lo = 1,
                  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Finite number in [lo, hi]; `dflt` (with a warning) otherwise.
double f64(const char* name, double dflt, double lo, double hi);

/// Index of the value in `options`; `dflt` when absent, and with a warning
/// when it names none of them. `dflt` may be -1 ("none of the options").
int choice(const char* name, std::initializer_list<const char*> options,
           int dflt);

}  // namespace pto::env
