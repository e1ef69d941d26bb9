// The explored-test knobs go through pto::env: a seed count of 0, which
// would run every explored sweep over zero schedules and so pass, warns and
// keeps the default, and so does a malformed base seed. CMake runs this
// binary with PTO_EXPLORE_SEEDS=0 and PTO_TEST_SEED=12x.
#include <gtest/gtest.h>

#include "common/env.h"
#include "common/warn.h"
#include "explore_util.h"

namespace {

namespace tu = pto::testutil;

TEST(ExploreEnv, BadSeedKnobsWarnAndKeepDefaults) {
  ASSERT_STREQ(pto::env::str("PTO_EXPLORE_SEEDS"), "0")
      << "run through ctest, which sets PTO_EXPLORE_SEEDS=0";
  EXPECT_EQ(tu::explore_seeds(4), 4u);
  EXPECT_EQ(pto::warn_count("env.PTO_EXPLORE_SEEDS"), 1u);
  EXPECT_EQ(tu::test_seed(53), 53u);
  EXPECT_EQ(pto::warn_count("env.PTO_TEST_SEED"), 1u);
}

}  // namespace
