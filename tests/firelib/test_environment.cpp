#include "firelib/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "synth/workloads.hpp"

namespace essns::firelib {
namespace {

/// set_topography over a 6x5 grid of 10-degree slopes facing north, with
/// one cell replaced; returns the error message, or "" when accepted.
std::string topography_error(int row, int col, double slope, double aspect) {
  FireEnvironment env(6, 5, 100.0);
  Grid<double> slopes(6, 5, 10.0);
  Grid<double> aspects(6, 5, 0.0);
  slopes(row, col) = slope;
  aspects(row, col) = aspect;
  try {
    env.set_topography(std::move(slopes), std::move(aspects));
  } catch (const InvalidArgument& error) {
    EXPECT_FALSE(env.has_topography()) << "a rejected grid must not be kept";
    return error.what();
  }
  EXPECT_TRUE(env.has_topography());
  return "";
}

TEST(FireEnvironmentTest, RejectsOutOfRangeTopography) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Slopes must lie in [0, 90) degrees: tan() of anything else is negative,
  // infinite or NaN, and the Rothermel tail would run on it.
  for (const double slope : {-0.5, -90.0, 90.0, 135.0, nan, inf, -inf}) {
    SCOPED_TRACE(slope);
    const std::string message = topography_error(4, 2, slope, 0.0);
    EXPECT_NE(message.find("row 4, column 2"), std::string::npos) << message;
  }
  for (const double aspect : {nan, inf, -inf}) {
    SCOPED_TRACE(aspect);
    const std::string message = topography_error(0, 3, 10.0, aspect);
    EXPECT_NE(message.find("row 0, column 3"), std::string::npos) << message;
  }
  // Boundaries and any finite aspect (the sweep wraps it) are accepted.
  EXPECT_EQ(topography_error(5, 4, 0.0, -720.0), "");
  EXPECT_EQ(topography_error(5, 4, 89.999, 1080.0), "");
}

TEST(FireEnvironmentTest, SynthDemsPassTopographyValidation) {
  for (const int size : {32, 64, 96}) {
    EXPECT_TRUE(synth::make_hills(size).environment.has_topography());
    EXPECT_TRUE(synth::make_rugged(size).environment.has_topography());
  }
}

TEST(FireEnvironmentTest, TopographyIdIsSharedByCopiesOnly) {
  FireEnvironment flat(4, 4, 100.0);
  EXPECT_EQ(flat.topography_id(), 0u);
  FireEnvironment a = flat;
  a.set_topography(Grid<double>(4, 4, 5.0), Grid<double>(4, 4, 90.0));
  FireEnvironment b = flat;
  b.set_topography(Grid<double>(4, 4, 5.0), Grid<double>(4, 4, 90.0));
  const FireEnvironment a_copy = a;
  EXPECT_NE(a.topography_id(), 0u);
  EXPECT_NE(a.topography_id(), b.topography_id());
  EXPECT_EQ(a_copy.topography_id(), a.topography_id());
  EXPECT_EQ(flat.topography_id(), 0u);
}

}  // namespace
}  // namespace essns::firelib
