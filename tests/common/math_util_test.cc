#include "src/common/math_util.h"

#include <gtest/gtest.h>

namespace jenga {
namespace {

TEST(CeilDiv, ExactAndInexact) {
  EXPECT_EQ(CeilDiv(0, 3), 0);
  EXPECT_EQ(CeilDiv(1, 3), 1);
  EXPECT_EQ(CeilDiv(3, 3), 1);
  EXPECT_EQ(CeilDiv(4, 3), 2);
  EXPECT_EQ(CeilDiv(6, 3), 2);
  EXPECT_EQ(CeilDiv(1000000007, 16), 62500001);
}

TEST(RoundUp, Basic) {
  EXPECT_EQ(RoundUp(0, 16), 0);
  EXPECT_EQ(RoundUp(1, 16), 16);
  EXPECT_EQ(RoundUp(16, 16), 16);
  EXPECT_EQ(RoundUp(17, 16), 32);
}

TEST(RoundDown, Basic) {
  EXPECT_EQ(RoundDown(0, 16), 0);
  EXPECT_EQ(RoundDown(15, 16), 0);
  EXPECT_EQ(RoundDown(16, 16), 16);
  EXPECT_EQ(RoundDown(31, 16), 16);
}

TEST(GcdAll, Single) {
  const int64_t sizes[] = {42};
  EXPECT_EQ(GcdAll(sizes), 42);
}

TEST(GcdAll, Multiple) {
  const int64_t sizes[] = {256, 384};
  EXPECT_EQ(GcdAll(sizes), 128);
}

TEST(LcmAll, PaperExample) {
  // §4.1: image pages of 256 and text pages of 384 get a compatible page of 768.
  const int64_t sizes[] = {256, 384};
  EXPECT_EQ(LcmAll(sizes), 768);
}

TEST(LcmAll, IdenticalSizes) {
  const int64_t sizes[] = {4096, 4096, 4096};
  EXPECT_EQ(LcmAll(sizes), 4096);
}

TEST(LcmAll, CoprimeSizes) {
  const int64_t sizes[] = {2048, 3072, 5120};  // 2^11, 3·2^10, 5·2^10 → 15·2^11.
  EXPECT_EQ(LcmAll(sizes), 30720);
}

TEST(LcmAll, OneDividesOther) {
  const int64_t sizes[] = {131072, 11010048};  // Jamba: mamba page = 84 × attention page.
  EXPECT_EQ(LcmAll(sizes), 11010048);
  EXPECT_EQ(LcmAll(sizes) / 131072, 84);
}

TEST(MathUtilDeath, LcmRejectsNonPositive) {
  const int64_t sizes[] = {16, 0};
  EXPECT_DEATH((void)LcmAll(sizes), "positive");
}

TEST(MathUtilDeath, GcdRejectsEmpty) {
  EXPECT_DEATH((void)GcdAll({}), "at least one");
}

}  // namespace
}  // namespace jenga
