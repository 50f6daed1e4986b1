// FireEnvironment: the terrain a fire spreads over.
//
// The paper's scenarios (Table I) are spatially uniform: one fuel model, one
// wind, one slope/aspect for the whole map. Real landscapes are not, so the
// environment also supports per-cell fuel codes and per-cell slope/aspect
// (e.g. derived from a DEM by essns_synth). When a per-cell layer is present
// it overrides the corresponding scenario field; this is how the ground-truth
// generator creates heterogeneous "real" fires while the optimizers still
// search the 9-parameter scenario space.
#pragma once

#include <cstdint>
#include <optional>

#include "common/grid.hpp"
#include "firelib/scenario.hpp"

namespace essns::firelib {

class FireEnvironment {
 public:
  /// Uniform environment: every cell uses the scenario's fuel model.
  FireEnvironment(int rows, int cols, double cell_size_ft);

  /// Heterogeneous fuels: per-cell catalog numbers (0 = unburnable).
  void set_fuel_map(Grid<std::uint8_t> fuel);

  /// Per-cell topography overriding the scenario's slope/aspect (degrees).
  /// Every slope must lie in [0, 90) and every aspect must be finite; the
  /// first bad cell is named by row and column. Stamps a fresh
  /// topography_id().
  void set_topography(Grid<double> slope_deg, Grid<double> aspect_deg);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double cell_size_ft() const { return cell_size_ft_; }

  bool has_fuel_map() const { return fuel_.has_value(); }
  bool has_topography() const { return slope_.has_value(); }

  /// Process-unique identity of the topography grids (0: none). Copies
  /// share it — the grids are immutable once set — so per-topography
  /// caches (PropagationWorkspace's slope terms) key on it instead of on
  /// the environment's address.
  std::uint64_t topography_id() const { return topography_id_; }

  /// Catalog number at (r, c) given the active scenario.
  int fuel_model_at(int r, int c, const Scenario& scenario) const {
    return fuel_ ? static_cast<int>((*fuel_)(r, c)) : scenario.model;
  }

  /// The per-cell fuel grid, or nullptr for scenario-uniform fuels. Hot loops
  /// read its data() directly instead of probing fuel_model_at per neighbour.
  const Grid<std::uint8_t>* fuel_map() const {
    return fuel_ ? &*fuel_ : nullptr;
  }

  double slope_deg_at(int r, int c, const Scenario& scenario) const {
    return slope_ ? (*slope_)(r, c) : scenario.slope;
  }

  double aspect_deg_at(int r, int c, const Scenario& scenario) const {
    return aspect_ ? (*aspect_)(r, c) : scenario.aspect;
  }

 private:
  int rows_;
  int cols_;
  double cell_size_ft_;
  std::optional<Grid<std::uint8_t>> fuel_;
  std::optional<Grid<double>> slope_;
  std::optional<Grid<double>> aspect_;
  std::uint64_t topography_id_ = 0;
};

/// `scenario` with the genes `env`'s per-cell layers override zeroed: the
/// fuel model under a fuel map, slope and aspect under a topography. No
/// sweep over `env` reads those fields, so scenarios that differ only in
/// them simulate bit-identical maps; memoization keys are built from this
/// form so such scenarios share one simulation.
inline Scenario canonical_scenario(const FireEnvironment& env,
                                   Scenario scenario) {
  if (env.has_fuel_map()) scenario.model = 0;
  if (env.has_topography()) {
    scenario.slope = 0.0;
    scenario.aspect = 0.0;
  }
  return scenario;
}

}  // namespace essns::firelib
