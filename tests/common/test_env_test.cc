#include "tests/common/test_env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace jenga {
namespace {

constexpr const char* kProbe = "JENGA_TEST_ENV_PROBE";

TEST(TestEnvTest, UnsetIsNullopt) {
  unsetenv(kProbe);
  EXPECT_FALSE(TestEnvUint(kProbe).has_value());
}

TEST(TestEnvTest, ParsesDecimalAndHex) {
  setenv(kProbe, "3000", 1);
  EXPECT_EQ(TestEnvUint(kProbe), 3000u);
  setenv(kProbe, "0xF1EE7", 1);
  EXPECT_EQ(TestEnvUint(kProbe), 0xF1EE7u);
  setenv(kProbe, "0", 1);
  EXPECT_EQ(TestEnvUint(kProbe), 0u);
  unsetenv(kProbe);
}

TEST(TestEnvTest, MalformedValueAbortsNamingTheVariable) {
  for (const char* bad : {"abc", "12abc", "0xZZ", "", "-1", " 7", "99999999999999999999"}) {
    setenv(kProbe, bad, 1);
    EXPECT_DEATH((void)TestEnvUint(kProbe), "bad JENGA_TEST_ENV_PROBE") << '"' << bad << '"';
  }
  unsetenv(kProbe);
}

}  // namespace
}  // namespace jenga
