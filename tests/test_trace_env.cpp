// PTO_TRACE arms the trace recorder's own gate and no tap: the recorder
// reads no site counter, so the event gate stays at one load and one branch.
// CMake runs this binary with PTO_TRACE set.
#include <gtest/gtest.h>

#include "common/env.h"
#include "telemetry/taps.h"
#include "telemetry/trace.h"

namespace {

TEST(TraceEnv, TraceArmsNoTap) {
  ASSERT_NE(pto::env::str("PTO_TRACE"), nullptr)
      << "run through ctest, which sets PTO_TRACE";
  EXPECT_TRUE(pto::telemetry::trace_on());
  EXPECT_EQ(pto::telemetry::taps(), 0u);
}

}  // namespace
