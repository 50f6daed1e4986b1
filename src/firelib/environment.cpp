#include "firelib/environment.hpp"

#include <atomic>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace essns::firelib {

FireEnvironment::FireEnvironment(int rows, int cols, double cell_size_ft)
    : rows_(rows), cols_(cols), cell_size_ft_(cell_size_ft) {
  ESSNS_REQUIRE(rows > 0 && cols > 0, "environment dimensions must be positive");
  ESSNS_REQUIRE(cell_size_ft > 0.0, "cell size must be positive");
}

void FireEnvironment::set_fuel_map(Grid<std::uint8_t> fuel) {
  ESSNS_REQUIRE(fuel.rows() == rows_ && fuel.cols() == cols_,
                "fuel map dimensions must match environment");
  // The propagator indexes fixed 14-entry per-model tables (0 = unburnable,
  // 1..13 the standard catalog); reject codes outside that range here so an
  // invalid mosaic cannot become an out-of-bounds read in the sweep.
  for (const std::uint8_t code : fuel)
    ESSNS_REQUIRE(code <= 13, "fuel map codes must be 0 (unburnable) .. 13");
  fuel_ = std::move(fuel);
}

void FireEnvironment::set_topography(Grid<double> slope_deg,
                                     Grid<double> aspect_deg) {
  ESSNS_REQUIRE(slope_deg.rows() == rows_ && slope_deg.cols() == cols_ &&
                    aspect_deg.rows() == rows_ && aspect_deg.cols() == cols_,
                "topography dimensions must match environment");
  // Checked here, where the grids enter, rather than in the sweep: the DEM
  // fast path only evaluates a cell's slope terms when it can still spread
  // to a neighbour, so a bad cell could otherwise go unnoticed.
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const double slope = slope_deg(r, c);
      const double aspect = aspect_deg(r, c);
      ESSNS_REQUIRE(slope >= 0.0 && slope < 90.0 && std::isfinite(aspect),
                    "topography at row " + std::to_string(r) + ", column " +
                        std::to_string(c) +
                        " needs a slope in [0, 90) degrees and a finite "
                        "aspect");
    }
  }
  static std::atomic<std::uint64_t> next_topography_id{1};
  slope_ = std::move(slope_deg);
  aspect_ = std::move(aspect_deg);
  topography_id_ = next_topography_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace essns::firelib
