// pto::telemetry spans — one stack of open prefix spans per simx virtual
// thread, kept by telemetry::on_event while the profiler or the checker tap
// is armed and read by both (DESIGN.md §7). An attempt or fallback event
// pushes; a commit or abort pops the innermost open attempt of its site, a
// fallback-end the innermost open fallback, each with every span above it
// (attempts an abort's longjmp abandoned). A pop that matches nothing
// leaves the stack alone; a push beyond kMaxSpans is dropped. A thread's
// stack is built by its first push and cleared when a run begins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "telemetry/prof.h"

namespace pto::telemetry {

constexpr unsigned kMaxSpans = 32;

/// One open prefix attempt or fallback execution.
struct Span {
  const Site* site = nullptr;
  bool fallback = false;
  std::uint64_t start = 0;  ///< the thread's virtual clock at push
  // The profiler's accumulators; the checker ignores them.
  std::uint64_t classed[prof::kClassCount] = {};
  std::uint64_t fence_elided_count = 0;
  std::uint64_t fence_elided_cycles = 0;
  std::uint64_t cas_collapsed_cycles = 0;
};

/// Virtual thread `tid`'s innermost open span (valid until the next push),
/// or null.
Span* top_span(unsigned tid);
unsigned span_depth(unsigned tid);
/// Close every open span (sim::run does, as a run begins).
void clear_spans();
/// Virtual threads holding a span stack: 0 until the first push.
std::size_t span_stacks();

/// "(none)" for a null site, else its name; "/fallback" marks a fallback.
std::string span_name(const Site* site, bool fallback = false);

}  // namespace pto::telemetry
