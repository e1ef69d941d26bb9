// Static-init order across translation units: PTO_METRICS arms the registry's
// counters tap from metrics.cpp's initializer (through metrics::configure),
// and the registry's own env initializer must not clear it again whichever
// runs first. CMake runs this binary with PTO_METRICS set.
#include <gtest/gtest.h>

#include "common/env.h"
#include "metrics/metrics.h"
#include "telemetry/registry.h"

namespace {

TEST(TapsEnv, MetricsEnvArmsCounters) {
  ASSERT_NE(pto::env::str("PTO_METRICS"), nullptr)
      << "run through ctest, which sets PTO_METRICS";
  EXPECT_TRUE(pto::metrics::armed());
  EXPECT_TRUE(pto::telemetry::enabled());
}

}  // namespace
