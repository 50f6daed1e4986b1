#include "firelib/rothermel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace essns::firelib {
namespace {

constexpr double kSmidgen = 1e-9;

struct CategoryAccum {
  double area = 0.0;       // total surface area weighting
  double savr = 0.0;       // area-weighted SAVR
  double net_load = 0.0;   // load net of total silica
  double fine_load = 0.0;  // exp-weighted fine load (for live Mx)
};

double azimuth_radians(double deg) { return units::degrees_to_radians(deg); }

double particle_moisture(const FuelParticle& p, const MoistureSet& moisture) {
  switch (p.cls) {
    case ParticleClass::kDead1Hr: return moisture.m1;
    case ParticleClass::kDead10Hr: return moisture.m10;
    case ParticleClass::kDead100Hr: return moisture.m100;
    case ParticleClass::kLiveHerb: return moisture.mherb;
    case ParticleClass::kLiveWoody: return moisture.mwood;
  }
  return 0.0;
}

}  // namespace

double FireBehavior::spread_rate_at(double deg) const {
  if (spread_rate_max <= 0.0) return 0.0;
  const double delta = azimuth_radians(deg - azimuth_max);
  const double denom = 1.0 - eccentricity * std::cos(delta);
  if (denom < kSmidgen) return spread_rate_max;
  return spread_rate_max * (1.0 - eccentricity) / denom;
}

double FireBehavior::byram_intensity_at(double deg) const {
  return heat_per_unit_area * spread_rate_at(deg) / 60.0;
}

double FireBehavior::flame_length_at(double deg) const {
  const double intensity = byram_intensity_at(deg);
  return intensity <= 0.0 ? 0.0 : 0.45 * std::pow(intensity, 0.46);
}

double FireBehavior::scorch_height_at(double deg, double air_temp_f) const {
  const double intensity = byram_intensity_at(deg);
  if (intensity <= 0.0) return 0.0;
  // Van Wagner: h_s = 63 / (140 - T) * I^(7/6) / sqrt(I + 0.00059 U^3),
  // U in ft/min (fireLib's Fire_FlameScorch formulation).
  const double wind = effective_wind_fpm;
  const double denom =
      std::sqrt(intensity + 0.00059 * wind * wind * wind / 3600.0);
  if (air_temp_f >= 140.0) return 1e9;  // everything scorches
  return 63.0 / (140.0 - air_temp_f) * std::pow(intensity, 7.0 / 6.0) / denom;
}

FuelBedIntermediates compute_fuel_bed(const FuelModel& model) {
  FuelBedIntermediates bed;
  if (!model.has_fuel()) return bed;

  // Surface-area weighting factors per life category (Rothermel 1972 via
  // Albini 1976, as implemented in fireLib's Fire_FuelCombustion).
  CategoryAccum dead, live;
  double total_load = 0.0;
  for (const FuelParticle& p : model.particles) {
    ESSNS_REQUIRE(p.load >= 0.0 && p.savr > 0.0 && p.density > 0.0,
                  "fuel particle attributes must be positive");
    CategoryAccum& cat = is_dead(p.cls) ? dead : live;
    const double area = p.load * p.savr / p.density;
    cat.area += area;
    total_load += p.load;
  }
  if (total_load < kSmidgen || dead.area < kSmidgen) return bed;

  for (const FuelParticle& p : model.particles) {
    CategoryAccum& cat = is_dead(p.cls) ? dead : live;
    const double area = p.load * p.savr / p.density;
    const double weight = area / cat.area;
    cat.savr += weight * p.savr;
    cat.net_load += weight * p.load * (1.0 - p.si_total);
    if (is_dead(p.cls)) {
      cat.fine_load += p.load * std::exp(-138.0 / p.savr);
    } else {
      cat.fine_load += p.load * std::exp(-500.0 / p.savr);
    }
  }

  // Characteristic SAVR weights the categories by their surface area share.
  const double total_area = dead.area + live.area;
  const double f_dead = dead.area / total_area;
  const double f_live = live.area / total_area;
  const double sigma = f_dead * dead.savr + f_live * live.savr;

  const double depth = model.depth;
  const double bulk_density = total_load / depth;
  // All standard particles share density 32 lb/ft^3; use the load-weighted
  // particle density to stay correct for custom models.
  double mean_density = 0.0;
  for (const FuelParticle& p : model.particles)
    mean_density += p.load / total_load * p.density;
  const double beta = bulk_density / mean_density;

  const double beta_op = 3.348 * std::pow(sigma, -0.8189);
  const double ratio = beta / beta_op;

  const double a = 133.0 * std::pow(sigma, -0.7913);
  const double sigma15 = std::pow(sigma, 1.5);
  const double gamma_max = sigma15 / (495.0 + 0.0594 * sigma15);
  const double gamma =
      gamma_max * std::pow(ratio, a) * std::exp(a * (1.0 - ratio));

  const double xi = std::exp((0.792 + 0.681 * std::sqrt(sigma)) *
                             (beta + 0.1)) /
                    (192.0 + 0.2595 * sigma);

  bed.burnable = true;
  bed.sigma = sigma;
  bed.bulk_density = bulk_density;
  bed.packing_ratio = beta;
  bed.beta_optimal = beta_op;
  bed.beta_ratio = ratio;
  bed.gamma = gamma;
  bed.xi = xi;
  bed.wind_b = 0.02526 * std::pow(sigma, 0.54);
  bed.wind_c = 7.47 * std::exp(-0.133 * std::pow(sigma, 0.55));
  bed.wind_e = 0.715 * std::exp(-3.59e-4 * sigma);
  bed.slope_k = 5.275 * std::pow(beta, -0.3);
  bed.dead_net_load = dead.net_load;
  bed.live_net_load = live.net_load;
  // Mineral damping eta_s = 0.174 * Se^-0.19, capped at 1.
  auto eta_s = [](double se) {
    return se > 0.0 ? std::min(1.0, 0.174 * std::pow(se, -0.19)) : 1.0;
  };
  bed.dead_eta_s = eta_s(0.01);
  bed.live_eta_s = eta_s(0.01);
  // Live-fuel extinction moisture inputs (Albini 1976 / fireLib):
  //   Mx_live = 2.9 W (1 - Mf_dead/Mx_dead) - 0.226, W = fineDead/fineLive.
  bed.live_mext_factor =
      live.fine_load > kSmidgen ? 2.9 * dead.fine_load / live.fine_load : 0.0;
  bed.fine_dead_ratio = dead.fine_load;
  return bed;
}

FuelSweepState compute_fuel_sweep_state(const FuelModel& model,
                                        const FuelBedIntermediates& bed,
                                        const MoistureSet& moisture,
                                        double wind_speed_fpm) {
  FuelSweepState state;
  if (!bed.burnable) return state;

  ESSNS_REQUIRE(moisture.m1 >= 0 && moisture.m10 >= 0 && moisture.m100 >= 0 &&
                    moisture.mherb >= 0 && moisture.mwood >= 0,
                "moistures must be non-negative fractions");
  ESSNS_REQUIRE(wind_speed_fpm >= 0.0, "wind speed must be non-negative");
  state.burnable = true;

  // --- Category moistures (surface-area weighted within category). ---
  double dead_area = 0.0, live_area = 0.0;
  double dead_moisture = 0.0, live_moisture = 0.0;
  double fine_dead_moisture_load = 0.0, fine_dead_load = 0.0;
  for (const FuelParticle& p : model.particles) {
    const double area = p.load * p.savr / p.density;
    const double m = particle_moisture(p, moisture);
    if (is_dead(p.cls)) {
      dead_area += area;
      dead_moisture += area * m;
      const double fine = p.load * std::exp(-138.0 / p.savr);
      fine_dead_load += fine;
      fine_dead_moisture_load += fine * m;
    } else {
      live_area += area;
      live_moisture += area * m;
    }
  }
  if (dead_area > kSmidgen) dead_moisture /= dead_area;
  if (live_area > kSmidgen) live_moisture /= live_area;

  // --- Moisture damping coefficients. ---
  auto eta_m = [](double m, double mx) {
    if (mx < kSmidgen) return 0.0;
    const double r = std::min(1.0, m / mx);
    const double eta = 1.0 - 2.59 * r + 5.11 * r * r - 3.52 * r * r * r;
    return std::clamp(eta, 0.0, 1.0);
  };
  const double dead_eta_m = eta_m(dead_moisture, model.mext_dead);

  double live_eta_m = 0.0;
  if (live_area > kSmidgen) {
    const double fine_dead_m =
        fine_dead_load > kSmidgen ? fine_dead_moisture_load / fine_dead_load
                                  : 0.0;
    double mx_live =
        bed.live_mext_factor * (1.0 - fine_dead_m / model.mext_dead) - 0.226;
    mx_live = std::max(mx_live, model.mext_dead);
    live_eta_m = eta_m(live_moisture, mx_live);
  }

  // --- Reaction intensity and no-wind/no-slope spread rate. ---
  // Heat content is taken per-particle (all standard models use 8000 Btu/lb).
  double heat_dead = 0.0, heat_live = 0.0;
  {
    double a_dead = 0.0, a_live = 0.0;
    for (const FuelParticle& p : model.particles) {
      const double area = p.load * p.savr / p.density;
      if (is_dead(p.cls)) { heat_dead += area * p.heat; a_dead += area; }
      else { heat_live += area * p.heat; a_live += area; }
    }
    heat_dead = a_dead > kSmidgen ? heat_dead / a_dead : 0.0;
    heat_live = a_live > kSmidgen ? heat_live / a_live : 0.0;
  }

  const double reaction_intensity =
      bed.gamma * (bed.dead_net_load * heat_dead * dead_eta_m * bed.dead_eta_s +
                   bed.live_net_load * heat_live * live_eta_m * bed.live_eta_s);

  // Heat sink: rho_b * sum over particles of area-weighted eps * Qig.
  double heat_sink = 0.0;
  {
    const double total_area = dead_area + live_area;
    for (const FuelParticle& p : model.particles) {
      const double area = p.load * p.savr / p.density;
      const double eps = std::exp(-138.0 / p.savr);
      const double qig = 250.0 + 1116.0 * particle_moisture(p, moisture);
      heat_sink += (area / total_area) * eps * qig;
    }
    heat_sink *= bed.bulk_density;
  }

  if (heat_sink < kSmidgen || reaction_intensity < kSmidgen) {
    state.reaction_intensity = std::max(reaction_intensity, 0.0);
    return state;  // fuel too wet to carry fire
  }

  state.spreads = true;
  state.reaction_intensity = reaction_intensity;
  // Residence time tau = 384/sigma (Anderson 1969) => H_A = I_R * tau.
  state.heat_per_unit_area = reaction_intensity * 384.0 / bed.sigma;
  state.r0 = reaction_intensity * bed.xi / heat_sink;
  state.slope_k = bed.slope_k;
  state.wind_b = bed.wind_b;
  state.wind_c = bed.wind_c;
  state.beta_ratio_pow_e = std::pow(bed.beta_ratio, bed.wind_e);
  state.beta_ratio_pow_neg_e = std::pow(bed.beta_ratio, -bed.wind_e);
  state.phi_w = wind_speed_fpm > kSmidgen
                    ? bed.wind_c * std::pow(wind_speed_fpm, bed.wind_b) *
                          state.beta_ratio_pow_neg_e
                    : 0.0;
  return state;
}

FireBehavior compute_cell_behavior(const FuelSweepState& state,
                                   double wind_dir_deg, double slope_ratio,
                                   double upslope_deg) {
  FireBehavior out;
  if (!state.burnable) return out;
  ESSNS_REQUIRE(slope_ratio >= 0.0, "slope ratio must be non-negative");
  if (!state.spreads) {
    out.reaction_intensity = state.reaction_intensity;
    return out;  // fuel too wet to carry fire
  }

  // --- Wind and slope factors combined vectorially (fireLib). ---
  const double r0 = state.r0;
  const double phi_s =
      slope_ratio > kSmidgen ? state.slope_k * slope_ratio * slope_ratio : 0.0;

  const double slope_rate = r0 * phi_s;        // vector toward upslope
  const double wind_rate = r0 * state.phi_w;   // vector toward wind bearing
  const double split = azimuth_radians(wind_dir_deg - upslope_deg);
  const double x = slope_rate + wind_rate * std::cos(split);
  const double y = wind_rate * std::sin(split);
  const double add_rate = std::sqrt(x * x + y * y);

  double azimuth_max = upslope_deg;
  if (add_rate > kSmidgen) {
    azimuth_max = upslope_deg + units::radians_to_degrees(std::atan2(y, x));
    azimuth_max = std::fmod(azimuth_max, 360.0);
    if (azimuth_max < 0.0) azimuth_max += 360.0;
  }

  double rmax = r0 + add_rate;
  double phi_ew = add_rate / r0;

  // Effective wind speed that would alone produce phi_ew.
  double eff_wind = 0.0;
  if (phi_ew > kSmidgen && state.wind_b > kSmidgen) {
    eff_wind = std::pow(phi_ew * state.beta_ratio_pow_e / state.wind_c,
                        1.0 / state.wind_b);
  }

  // Rothermel's wind limit: effective wind capped at 0.9 * I_R.
  bool limit_hit = false;
  const double max_wind = 0.9 * state.reaction_intensity;
  if (eff_wind > max_wind) {
    limit_hit = true;
    eff_wind = max_wind;
    phi_ew = eff_wind > kSmidgen ? state.wind_c *
                                       std::pow(eff_wind, state.wind_b) *
                                       state.beta_ratio_pow_neg_e
                                 : 0.0;
    rmax = r0 * (1.0 + phi_ew);
  }

  // Elliptical shape: length/width ratio grows with effective wind
  // (Anderson 1983, as coded in fireLib: 1 + 0.002840909 * effWind).
  const double lwr = 1.0 + 0.002840909 * eff_wind;
  const double ecc =
      lwr > 1.0 + kSmidgen ? std::sqrt(lwr * lwr - 1.0) / lwr : 0.0;

  out.spread_rate_no_wind = r0;
  out.spread_rate_max = rmax;
  out.azimuth_max = azimuth_max;
  out.eccentricity = ecc;
  out.effective_wind_fpm = eff_wind;
  out.reaction_intensity = state.reaction_intensity;
  out.heat_per_unit_area = state.heat_per_unit_area;
  out.wind_limit_hit = limit_hit;
  return out;
}

FireBehavior compute_fire_behavior(const FuelModel& model,
                                   const FuelBedIntermediates& bed,
                                   const MoistureSet& moisture,
                                   const WindSlope& ws) {
  return compute_cell_behavior(
      compute_fuel_sweep_state(model, bed, moisture, ws.wind_speed_fpm),
      ws.wind_dir_deg, ws.slope_ratio, ws.upslope_deg);
}

FireSpreadModel::FireSpreadModel(const FuelCatalog& catalog)
    : catalog_(&catalog) {
  beds_.reserve(static_cast<std::size_t>(catalog.size()));
  for (int n = 0; n < catalog.size(); ++n)
    beds_.push_back(compute_fuel_bed(catalog.model(n)));
}

FireBehavior FireSpreadModel::behavior(int number, const MoistureSet& moisture,
                                       const WindSlope& ws) const {
  ESSNS_REQUIRE(catalog_->contains(number), "unknown fuel model number");
  return compute_fire_behavior(catalog_->model(number),
                               beds_[static_cast<std::size_t>(number)],
                               moisture, ws);
}

FuelSweepState FireSpreadModel::sweep_state(int number,
                                            const MoistureSet& moisture,
                                            double wind_speed_fpm) const {
  ESSNS_REQUIRE(catalog_->contains(number), "unknown fuel model number");
  return compute_fuel_sweep_state(catalog_->model(number),
                                  beds_[static_cast<std::size_t>(number)],
                                  moisture, wind_speed_fpm);
}

}  // namespace essns::firelib
