// Rothermel (1972) surface fire spread model with the BEHAVE/fireLib wind and
// slope extensions and elliptical fire-shape geometry (Anderson 1983).
//
// The kernel is split in two phases exactly as in fireLib:
//   1. fuel-bed intermediates that depend only on the fuel model
//      (FuelBedIntermediates, computed once per model and cached);
//   2. the environment-dependent computation (moistures, wind, slope) that
//      produces a FireBehavior: maximum spread rate + direction, reaction
//      intensity and the eccentricity of the elliptical spread figure.
// Phase 2 is itself two steps: a FuelSweepState holding everything that
// depends only on (fuel model, moisture, wind speed), and a per-cell tail
// adding slope and wind direction. compute_fire_behavior is their
// composition; a sweep over per-cell terrain builds the state once per fuel
// model and runs only the tail per cell, with identical results.
//
// Units are English throughout (ft, min, lb, Btu), like fireLib; use
// essns::units to convert Table I inputs.
#pragma once

#include "firelib/fuel_model.hpp"

namespace essns::firelib {

/// Environmental moistures, as fractions (not percents).
struct MoistureSet {
  double m1 = 0.10;     ///< dead 1-h
  double m10 = 0.10;    ///< dead 10-h
  double m100 = 0.10;   ///< dead 100-h
  double mherb = 1.00;  ///< live herbaceous
  double mwood = 1.00;  ///< live woody
};

/// Wind/slope inputs in kernel units.
struct WindSlope {
  double wind_speed_fpm = 0.0;   ///< midflame wind speed, ft/min
  double wind_dir_deg = 0.0;     ///< azimuth wind blows toward, deg from north
  double slope_ratio = 0.0;      ///< rise/run (tan of slope angle)
  double upslope_deg = 0.0;      ///< azimuth pointing upslope, deg from north
};

/// Fuel-dependent intermediates (Rothermel's fuel-bed characteristics).
struct FuelBedIntermediates {
  bool burnable = false;
  double sigma = 0.0;          ///< characteristic SAVR (1/ft)
  double bulk_density = 0.0;   ///< rho_b (lb/ft^3)
  double packing_ratio = 0.0;  ///< beta
  double beta_optimal = 0.0;   ///< beta_op
  double beta_ratio = 0.0;     ///< beta / beta_op
  double gamma = 0.0;          ///< optimum reaction velocity (1/min)
  double xi = 0.0;             ///< propagating flux ratio
  double wind_b = 0.0;         ///< B exponent of phi_w
  double wind_c = 0.0;         ///< C coefficient of phi_w
  double wind_e = 0.0;         ///< E exponent of phi_w
  double slope_k = 0.0;        ///< 5.275 * beta^-0.3
  double dead_net_load = 0.0;  ///< net loading of dead category (lb/ft^2)
  double live_net_load = 0.0;  ///< net loading of live category (lb/ft^2)
  double dead_eta_s = 0.0;     ///< mineral damping, dead
  double live_eta_s = 0.0;     ///< mineral damping, live
  double live_mext_factor = 0.0;  ///< W' factor for live extinction moisture
  double fine_dead_ratio = 0.0;   ///< fine dead load weighting for live Mx
};

/// Environment-dependent fire behavior at a point.
struct FireBehavior {
  double spread_rate_no_wind = 0.0;  ///< R0 (ft/min)
  double spread_rate_max = 0.0;      ///< Rmax along azimuth_max (ft/min)
  double azimuth_max = 0.0;          ///< direction of max spread (deg)
  double eccentricity = 0.0;         ///< of the elliptical spread figure
  double effective_wind_fpm = 0.0;   ///< combined wind+slope effective wind
  double reaction_intensity = 0.0;   ///< I_R (Btu/ft^2/min)
  double heat_per_unit_area = 0.0;   ///< H_A (Btu/ft^2)
  bool wind_limit_hit = false;       ///< effective wind capped at 0.9 I_R

  /// Spread rate (ft/min) toward compass azimuth `deg` (Anderson's ellipse).
  double spread_rate_at(double deg) const;

  /// Byram's fireline intensity (Btu/ft/s) in the direction of `deg`:
  /// I_B = H_A * R / 60 (fireLib's Fire_FlameScorch chain).
  double byram_intensity_at(double deg) const;

  /// Flame length (ft) in the direction of `deg`: L = 0.45 * I_B^0.46
  /// (Byram 1959, as coded in fireLib).
  double flame_length_at(double deg) const;

  /// Scorch height (ft) in the direction of `deg` for ambient air
  /// temperature `air_temp_f` (deg F) and the behavior's effective wind:
  /// Van Wagner (1973) as adapted in fireLib/BEHAVE.
  double scorch_height_at(double deg, double air_temp_f) const;
};

/// Phase 2, first step: the part of the fire behavior that is constant over
/// a sweep (fuel model, moisture, wind speed), so per-cell terrain only pays
/// for the tail (compute_cell_behavior).
struct FuelSweepState {
  bool burnable = false;  ///< false: no fuel, the behavior is all zeros
  bool spreads = false;   ///< false: too wet to carry fire (or no fuel)
  double reaction_intensity = 0.0;  ///< I_R (Btu/ft^2/min)
  double heat_per_unit_area = 0.0;  ///< H_A (Btu/ft^2)
  double r0 = 0.0;                  ///< no-wind, no-slope spread rate (ft/min)
  double phi_w = 0.0;               ///< wind factor at the sweep's wind speed
  double slope_k = 0.0;             ///< fuel bed's slope_k
  double wind_b = 0.0;              ///< fuel bed's wind_b
  double wind_c = 0.0;              ///< fuel bed's wind_c
  double beta_ratio_pow_e = 0.0;      ///< beta_ratio^wind_e
  double beta_ratio_pow_neg_e = 0.0;  ///< beta_ratio^-wind_e
};

/// Phase 1: fuel-bed intermediates for `model`. Cheap enough to call freely,
/// but FireSpreadModel caches one per catalog entry.
FuelBedIntermediates compute_fuel_bed(const FuelModel& model);

/// Phase 2, first step: validates the moistures and the wind speed (only
/// for a burnable bed, like the full computation).
FuelSweepState compute_fuel_sweep_state(const FuelModel& model,
                                        const FuelBedIntermediates& bed,
                                        const MoistureSet& moisture,
                                        double wind_speed_fpm);

/// Phase 2, per-cell tail: the wind-slope vector sum, effective wind, wind
/// limit and ellipse for one cell's slope and aspect (`upslope_deg` is the
/// azimuth pointing upslope). Validates the slope ratio for a burnable state.
FireBehavior compute_cell_behavior(const FuelSweepState& state,
                                   double wind_dir_deg, double slope_ratio,
                                   double upslope_deg);

/// Phase 2: full fire behavior for a fuel bed under an environment — the
/// sweep state for ws.wind_speed_fpm followed by the per-cell tail.
FireBehavior compute_fire_behavior(const FuelModel& model,
                                   const FuelBedIntermediates& bed,
                                   const MoistureSet& moisture,
                                   const WindSlope& ws);

/// Convenience facade that caches intermediates for the standard catalog.
class FireSpreadModel {
 public:
  explicit FireSpreadModel(const FuelCatalog& catalog = FuelCatalog::standard());

  /// Behavior of catalog model `number` under the given environment.
  FireBehavior behavior(int number, const MoistureSet& moisture,
                        const WindSlope& ws) const;

  /// Sweep state of catalog model `number` (see compute_fuel_sweep_state).
  FuelSweepState sweep_state(int number, const MoistureSet& moisture,
                             double wind_speed_fpm) const;

  const FuelCatalog& catalog() const { return *catalog_; }

 private:
  const FuelCatalog* catalog_;
  std::vector<FuelBedIntermediates> beds_;
};

}  // namespace essns::firelib
