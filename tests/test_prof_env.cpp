// PTO_PROF has one report, the JSON one: a value other than "json" warns
// once and still writes it. CMake runs this binary with PTO_PROF=text and
// PTO_PROF_OUT=prof_env.json.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/env.h"
#include "common/warn.h"
#include "json_util.h"
#include "telemetry/prof.h"

namespace {

namespace prof = pto::telemetry::prof;

TEST(ProfEnv, TextValueWarnsAndWritesTheJsonReport) {
  ASSERT_STREQ(pto::env::str("PTO_PROF"), "text")
      << "run through ctest, which sets PTO_PROF=text";
  const char* path = pto::env::str("PTO_PROF_OUT");
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(prof::on());
  EXPECT_EQ(pto::warn_count("env.PTO_PROF"), 1u);

  std::remove(path);
  prof::report_if_enabled();  // what the exit hook writes
  std::ifstream in(path);
  ASSERT_TRUE(in) << "no report at " << path;
  std::stringstream text;
  text << in.rdbuf();
  testjson::Value v;
  ASSERT_TRUE(testjson::parse(text.str(), &v)) << text.str();
  EXPECT_EQ(v.find("type")->str(), "pto_prof");
  ASSERT_NE(v.find("scopes"), nullptr);
  EXPECT_TRUE(v.find("scopes")->is_array());
}

}  // namespace
