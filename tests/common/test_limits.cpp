#include "common/limits.hpp"

#include <gtest/gtest.h>

namespace essns::limits {
namespace {

TEST(LimitsTest, ParseIntInHonoursBothBounds) {
  EXPECT_EQ(parse_int_in("1", 1, 8), 1);
  EXPECT_EQ(parse_int_in("8", 1, 8), 8);
  EXPECT_FALSE(parse_int_in("0", 1, 8).has_value());
  EXPECT_FALSE(parse_int_in("9", 1, 8).has_value());
  EXPECT_FALSE(parse_int_in("99999999999", 1, 8).has_value());  // overflow
  EXPECT_FALSE(parse_int_in(" 4", 1, 8).has_value());  // parse_int's rules
  EXPECT_FALSE(parse_int_in("4x", 1, 8).has_value());
}

TEST(LimitsTest, CapsBoundWhatOneInputCanAskFor) {
  // A grid at the size cap stays under 8 MiB of doubles per map, and the
  // thread-spawning caps stay in the hundreds.
  EXPECT_LE(std::size_t{kMaxGridSize} * kMaxGridSize * sizeof(double),
            std::size_t{8} << 20);
  EXPECT_LE(kMaxWorkers, 256);
  EXPECT_LE(kMaxJobs, 256);
  EXPECT_LE(kMaxShards, 64);
}

}  // namespace
}  // namespace essns::limits
