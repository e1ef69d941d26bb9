// A process that arms neither the profiler nor the checker builds no
// per-thread observer table: the span stacks (telemetry/span.h) appear with
// the first span pushed while a reader is armed, and the checker's thread
// state when a checked run begins. A one-test binary, so nothing earlier in
// the process has armed either reader.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/check.h"
#include "core/prefix.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"

namespace {

using pto::Atom;
using pto::SimPlatform;
namespace sim = pto::sim;
namespace check = pto::check;
namespace telemetry = pto::telemetry;

constexpr unsigned kThreads = 4;

/// Prefix operations on four virtual threads.
void run_prefixes() {
  sim::reset_memory();
  Atom<SimPlatform, std::uint64_t> cell;
  cell.init(0);
  sim::Config cfg;
  cfg.seed = 3;
  sim::run(kThreads, cfg, [&](unsigned) {
    for (int i = 0; i < 20; ++i) {
      pto::prefix<SimPlatform>(
          2, [&] { cell.store(cell.load() + 1); }, [&] { cell.fetch_add(1); },
          PTO_TELEMETRY_SITE("firstuse.add"));
      sim::op_done();
    }
  });
}

TEST(SpanStack, NoObserverTablesUntilArmed) {
  ASSERT_EQ(telemetry::taps(), 0u)
      << "run without PTO_* observability variables";
  EXPECT_EQ(telemetry::span_stacks(), 0u);
  EXPECT_EQ(check::thread_states(), 0u);

  run_prefixes();  // every tap off
  EXPECT_EQ(telemetry::span_stacks(), 0u);
  EXPECT_EQ(check::thread_states(), 0u);

  telemetry::set_enabled(true);  // the counters read no span
  run_prefixes();
  telemetry::set_enabled(false);
  EXPECT_EQ(telemetry::span_stacks(), 0u);
  EXPECT_EQ(check::thread_states(), 0u);

  check::set_enabled(true);
  run_prefixes();
  check::set_enabled(false);
  EXPECT_EQ(telemetry::span_stacks(), kThreads);
  EXPECT_EQ(check::thread_states(), kThreads);
}

}  // namespace
