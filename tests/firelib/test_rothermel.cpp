#include "firelib/rothermel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace essns::firelib {
namespace {

MoistureSet dry() { return {0.06, 0.08, 0.10, 0.60, 0.90}; }

class RothermelAllModels : public ::testing::TestWithParam<int> {};

TEST_P(RothermelAllModels, NoWindNoSlopeSpreadIsPositiveForDryFuel) {
  const FireSpreadModel model;
  const FireBehavior b = model.behavior(GetParam(), dry(), {});
  EXPECT_GT(b.spread_rate_no_wind, 0.0) << "model " << GetParam();
  EXPECT_GT(b.reaction_intensity, 0.0);
  EXPECT_DOUBLE_EQ(b.spread_rate_max, b.spread_rate_no_wind);
  EXPECT_DOUBLE_EQ(b.eccentricity, 0.0);
}

TEST_P(RothermelAllModels, WindIncreasesSpread) {
  const FireSpreadModel model;
  const FireBehavior calm = model.behavior(GetParam(), dry(), {});
  WindSlope windy{units::mph_to_ft_per_min(10.0), 0.0, 0.0, 0.0};
  const FireBehavior blown = model.behavior(GetParam(), dry(), windy);
  EXPECT_GT(blown.spread_rate_max, calm.spread_rate_max);
  EXPECT_GT(blown.eccentricity, 0.0);
  EXPECT_LT(blown.eccentricity, 1.0);
}

TEST_P(RothermelAllModels, WindSpeedMonotonicity) {
  const FireSpreadModel model;
  double previous = 0.0;
  for (double mph = 0.0; mph <= 30.0; mph += 5.0) {
    WindSlope ws{units::mph_to_ft_per_min(mph), 90.0, 0.0, 0.0};
    const FireBehavior b = model.behavior(GetParam(), dry(), ws);
    EXPECT_GE(b.spread_rate_max, previous)
        << "model " << GetParam() << " at " << mph << " mph";
    previous = b.spread_rate_max;
  }
}

TEST_P(RothermelAllModels, MoistureDampensSpread) {
  const FireSpreadModel model;
  MoistureSet wetter = dry();
  wetter.m1 = 0.12;
  wetter.m10 = 0.14;
  wetter.m100 = 0.16;
  const FireBehavior dry_b = model.behavior(GetParam(), dry(), {});
  const FireBehavior wet_b = model.behavior(GetParam(), wetter, {});
  EXPECT_LE(wet_b.spread_rate_no_wind, dry_b.spread_rate_no_wind);
}

TEST_P(RothermelAllModels, SaturatedDeadFuelDoesNotSpread) {
  const FireSpreadModel model;
  // Above every model's dead extinction moisture (max 40%).
  MoistureSet soaked{0.5, 0.5, 0.5, 3.0, 3.0};
  const FireBehavior b = model.behavior(GetParam(), soaked, {});
  EXPECT_DOUBLE_EQ(b.spread_rate_max, 0.0);
}

TEST_P(RothermelAllModels, SlopeIncreasesSpreadUpslope) {
  const FireSpreadModel model;
  const FireBehavior flat = model.behavior(GetParam(), dry(), {});
  WindSlope sloped{0.0, 0.0, units::slope_degrees_to_ratio(30.0), 0.0};
  const FireBehavior hill = model.behavior(GetParam(), dry(), sloped);
  EXPECT_GT(hill.spread_rate_max, flat.spread_rate_max);
  EXPECT_DOUBLE_EQ(hill.azimuth_max, 0.0);  // upslope azimuth
}

INSTANTIATE_TEST_SUITE_P(AllStandardModels, RothermelAllModels,
                         ::testing::Range(1, 14));

TEST(RothermelTest, UnburnableModelZero) {
  const FireSpreadModel model;
  const FireBehavior b = model.behavior(0, dry(), {});
  EXPECT_DOUBLE_EQ(b.spread_rate_max, 0.0);
  EXPECT_DOUBLE_EQ(b.reaction_intensity, 0.0);
}

TEST(RothermelTest, MaxSpreadFollowsWindDirection) {
  const FireSpreadModel model;
  for (double dir : {0.0, 45.0, 90.0, 180.0, 270.0, 315.0}) {
    WindSlope ws{units::mph_to_ft_per_min(8.0), dir, 0.0, 0.0};
    const FireBehavior b = model.behavior(1, dry(), ws);
    EXPECT_NEAR(b.azimuth_max, dir, 1e-6);
  }
}

TEST(RothermelTest, WindAndSlopeCombineVectorially) {
  const FireSpreadModel model;
  // Wind east (90), upslope north (0): max spread azimuth lies between.
  WindSlope ws{units::mph_to_ft_per_min(6.0), 90.0,
               units::slope_degrees_to_ratio(20.0), 0.0};
  const FireBehavior b = model.behavior(1, dry(), ws);
  EXPECT_GT(b.azimuth_max, 0.0);
  EXPECT_LT(b.azimuth_max, 90.0);
}

TEST(RothermelTest, SpreadRateAtAzimuthPeaksAtMaxDirection) {
  const FireSpreadModel model;
  WindSlope ws{units::mph_to_ft_per_min(12.0), 90.0, 0.0, 0.0};
  const FireBehavior b = model.behavior(1, dry(), ws);
  const double peak = b.spread_rate_at(b.azimuth_max);
  EXPECT_NEAR(peak, b.spread_rate_max, 1e-9);
  for (double az = 0.0; az < 360.0; az += 15.0)
    EXPECT_LE(b.spread_rate_at(az), peak + 1e-9);
}

TEST(RothermelTest, BackingSpreadIsSlowestAndPositive) {
  const FireSpreadModel model;
  WindSlope ws{units::mph_to_ft_per_min(12.0), 0.0, 0.0, 0.0};
  const FireBehavior b = model.behavior(1, dry(), ws);
  const double backing = b.spread_rate_at(180.0);
  EXPECT_GT(backing, 0.0);
  for (double az = 0.0; az < 360.0; az += 15.0)
    EXPECT_GE(b.spread_rate_at(az), backing - 1e-9);
}

TEST(RothermelTest, EllipseIsSymmetricAroundMaxAxis) {
  const FireSpreadModel model;
  WindSlope ws{units::mph_to_ft_per_min(9.0), 45.0, 0.0, 0.0};
  const FireBehavior b = model.behavior(3, dry(), ws);
  for (double off : {30.0, 60.0, 90.0, 120.0}) {
    EXPECT_NEAR(b.spread_rate_at(45.0 + off), b.spread_rate_at(45.0 - off),
                1e-9);
  }
}

TEST(RothermelTest, GrassFasterThanTimberLitter) {
  // Model 1 (short grass) spreads much faster than model 8 (closed timber
  // litter) under identical conditions — the defining contrast of the NFFL
  // set.
  const FireSpreadModel model;
  WindSlope ws{units::mph_to_ft_per_min(5.0), 0.0, 0.0, 0.0};
  const FireBehavior grass = model.behavior(1, dry(), ws);
  const FireBehavior litter = model.behavior(8, dry(), ws);
  EXPECT_GT(grass.spread_rate_max, 5.0 * litter.spread_rate_max);
}

TEST(RothermelTest, ReasonableMagnitudeForGrass) {
  // Model 1, 5% moisture, 5 mph midflame wind: BEHAVE-family tools report
  // roughly 50-120 ft/min. Accept a generous band — we validate magnitude,
  // not decimals.
  const FireSpreadModel model;
  MoistureSet m{0.05, 0.06, 0.07, 0.6, 0.9};
  WindSlope ws{units::mph_to_ft_per_min(5.0), 0.0, 0.0, 0.0};
  const FireBehavior b = model.behavior(1, m, ws);
  EXPECT_GT(b.spread_rate_max, 20.0);
  EXPECT_LT(b.spread_rate_max, 300.0);
}

TEST(RothermelTest, HeatPerUnitAreaPositiveAndScalesWithLoad) {
  const FireSpreadModel model;
  const FireBehavior light = model.behavior(1, dry(), {});
  const FireBehavior heavy = model.behavior(13, dry(), {});
  EXPECT_GT(light.heat_per_unit_area, 0.0);
  EXPECT_GT(heavy.heat_per_unit_area, light.heat_per_unit_area);
}

TEST(RothermelTest, WindLimitCapsExtremWind) {
  const FireSpreadModel model;
  // Hurricane wind over modest fuel triggers Rothermel's 0.9*I_R cap.
  WindSlope ws{units::mph_to_ft_per_min(80.0), 0.0, 0.0, 0.0};
  const FireBehavior b = model.behavior(8, dry(), ws);
  EXPECT_TRUE(b.wind_limit_hit);
  EXPECT_LE(b.effective_wind_fpm, 0.9 * b.reaction_intensity + 1e-6);
}

TEST(RothermelTest, RejectsNegativeInputs) {
  const FireSpreadModel model;
  MoistureSet bad = dry();
  bad.m1 = -0.1;
  EXPECT_THROW(model.behavior(1, bad, {}), InvalidArgument);
  WindSlope neg_wind{-1.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(model.behavior(1, dry(), neg_wind), InvalidArgument);
  WindSlope neg_slope{0.0, 0.0, -0.5, 0.0};
  EXPECT_THROW(model.behavior(1, dry(), neg_slope), InvalidArgument);
  EXPECT_THROW(model.behavior(99, dry(), {}), InvalidArgument);
}

TEST(RothermelTest, FuelBedIntermediatesSanity) {
  const FuelBedIntermediates bed =
      compute_fuel_bed(FuelCatalog::standard().model(1));
  EXPECT_TRUE(bed.burnable);
  EXPECT_NEAR(bed.sigma, 3500.0, 1e-9);  // single-particle model
  EXPECT_GT(bed.packing_ratio, 0.0);
  EXPECT_LT(bed.packing_ratio, 0.1);
  EXPECT_GT(bed.xi, 0.0);
  EXPECT_LT(bed.xi, 1.0);
  EXPECT_GT(bed.gamma, 0.0);
}

// The monolithic phase-2 computation as it stood before the split into
// FuelSweepState + per-cell tail, kept verbatim as the oracle that pins the
// split's arithmetic: the production code now has only the split form, so
// comparing its callers with each other would not catch a reordered
// operation.
namespace seed {

constexpr double kSmidgen = 1e-9;

struct CategoryAccum {
  double area = 0.0;       // total surface area weighting
  double savr = 0.0;       // area-weighted SAVR
  double net_load = 0.0;   // load net of total silica
  double fine_load = 0.0;  // exp-weighted fine load (for live Mx)
};

double azimuth_radians(double deg) { return units::degrees_to_radians(deg); }

FireBehavior compute_fire_behavior(const FuelModel& model,
                                   const FuelBedIntermediates& bed,
                                   const MoistureSet& moisture,
                                   const WindSlope& ws) {
  FireBehavior out;
  if (!bed.burnable) return out;

  ESSNS_REQUIRE(moisture.m1 >= 0 && moisture.m10 >= 0 && moisture.m100 >= 0 &&
                    moisture.mherb >= 0 && moisture.mwood >= 0,
                "moistures must be non-negative fractions");
  ESSNS_REQUIRE(ws.wind_speed_fpm >= 0.0, "wind speed must be non-negative");
  ESSNS_REQUIRE(ws.slope_ratio >= 0.0, "slope ratio must be non-negative");

  // --- Category moistures (surface-area weighted within category). ---
  CategoryAccum dummy;
  double dead_area = 0.0, live_area = 0.0;
  double dead_moisture = 0.0, live_moisture = 0.0;
  double fine_dead_moisture_load = 0.0, fine_dead_load = 0.0;
  for (const FuelParticle& p : model.particles) {
    const double area = p.load * p.savr / p.density;
    double m = 0.0;
    switch (p.cls) {
      case ParticleClass::kDead1Hr: m = moisture.m1; break;
      case ParticleClass::kDead10Hr: m = moisture.m10; break;
      case ParticleClass::kDead100Hr: m = moisture.m100; break;
      case ParticleClass::kLiveHerb: m = moisture.mherb; break;
      case ParticleClass::kLiveWoody: m = moisture.mwood; break;
    }
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
  (void)dummy;
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
      double m = 0.0;
      switch (p.cls) {
        case ParticleClass::kDead1Hr: m = moisture.m1; break;
        case ParticleClass::kDead10Hr: m = moisture.m10; break;
        case ParticleClass::kDead100Hr: m = moisture.m100; break;
        case ParticleClass::kLiveHerb: m = moisture.mherb; break;
        case ParticleClass::kLiveWoody: m = moisture.mwood; break;
      }
      const double eps = std::exp(-138.0 / p.savr);
      const double qig = 250.0 + 1116.0 * m;
      heat_sink += (area / total_area) * eps * qig;
    }
    heat_sink *= bed.bulk_density;
  }

  if (heat_sink < kSmidgen || reaction_intensity < kSmidgen) {
    out.reaction_intensity = std::max(reaction_intensity, 0.0);
    return out;  // fuel too wet to carry fire
  }

  const double r0 = reaction_intensity * bed.xi / heat_sink;

  // --- Wind and slope factors combined vectorially (fireLib). ---
  const double phi_w =
      ws.wind_speed_fpm > kSmidgen
          ? bed.wind_c * std::pow(ws.wind_speed_fpm, bed.wind_b) *
                std::pow(bed.beta_ratio, -bed.wind_e)
          : 0.0;
  const double phi_s =
      ws.slope_ratio > kSmidgen ? bed.slope_k * ws.slope_ratio * ws.slope_ratio
                                : 0.0;

  const double slope_rate = r0 * phi_s;  // vector toward upslope
  const double wind_rate = r0 * phi_w;   // vector toward wind bearing
  const double split =
      azimuth_radians(ws.wind_dir_deg - ws.upslope_deg);
  const double x = slope_rate + wind_rate * std::cos(split);
  const double y = wind_rate * std::sin(split);
  const double add_rate = std::sqrt(x * x + y * y);

  double azimuth_max = ws.upslope_deg;
  if (add_rate > kSmidgen) {
    azimuth_max =
        ws.upslope_deg + units::radians_to_degrees(std::atan2(y, x));
    azimuth_max = std::fmod(azimuth_max, 360.0);
    if (azimuth_max < 0.0) azimuth_max += 360.0;
  }

  double rmax = r0 + add_rate;
  double phi_ew = add_rate / r0;

  // Effective wind speed that would alone produce phi_ew.
  double eff_wind = 0.0;
  if (phi_ew > kSmidgen && bed.wind_b > kSmidgen) {
    eff_wind = std::pow(phi_ew * std::pow(bed.beta_ratio, bed.wind_e) /
                            bed.wind_c,
                        1.0 / bed.wind_b);
  }

  // Rothermel's wind limit: effective wind capped at 0.9 * I_R.
  bool limit_hit = false;
  const double max_wind = 0.9 * reaction_intensity;
  if (eff_wind > max_wind) {
    limit_hit = true;
    eff_wind = max_wind;
    phi_ew = eff_wind > kSmidgen
                 ? bed.wind_c * std::pow(eff_wind, bed.wind_b) *
                       std::pow(bed.beta_ratio, -bed.wind_e)
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
  out.reaction_intensity = reaction_intensity;
  // Residence time tau = 384/sigma (Anderson 1969) => H_A = I_R * tau.
  out.heat_per_unit_area = reaction_intensity * 384.0 / bed.sigma;
  out.wind_limit_hit = limit_hit;
  return out;
}

}  // namespace seed

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_equal(const FireBehavior& want, const FireBehavior& got,
                      const std::string& where) {
  EXPECT_EQ(bits(want.spread_rate_no_wind), bits(got.spread_rate_no_wind))
      << where;
  EXPECT_EQ(bits(want.spread_rate_max), bits(got.spread_rate_max)) << where;
  EXPECT_EQ(bits(want.azimuth_max), bits(got.azimuth_max)) << where;
  EXPECT_EQ(bits(want.eccentricity), bits(got.eccentricity)) << where;
  EXPECT_EQ(bits(want.effective_wind_fpm), bits(got.effective_wind_fpm))
      << where;
  EXPECT_EQ(bits(want.reaction_intensity), bits(got.reaction_intensity))
      << where;
  EXPECT_EQ(bits(want.heat_per_unit_area), bits(got.heat_per_unit_area))
      << where;
  EXPECT_EQ(want.wind_limit_hit, got.wind_limit_hit) << where;
}

// Randomized sweep over every catalog model (0 = unburnable, 1..13), with
// wet fuel, zero wind, zero slope, wind-limit hits and azimuth wrap-around
// all drawn often enough to be counted below. Both the state + tail pair
// and the compute_fire_behavior composition must equal the oracle bit for
// bit in every field.
TEST(RothermelSplitTest, StatePlusTailBitEqualsSeedOracle) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  Rng rng(1972);
  int wet = 0, calm = 0, flat = 0, limited = 0, wrapped = 0, unburnable = 0;
  for (int n = 0; n < catalog.size(); ++n) {
    const FuelModel& fuel = catalog.model(n);
    const FuelBedIntermediates bed = compute_fuel_bed(fuel);
    for (int trial = 0; trial < 400; ++trial) {
      const bool soaked = trial % 7 == 0;
      MoistureSet m{rng.uniform(0.02, 0.30), rng.uniform(0.02, 0.30),
                    rng.uniform(0.02, 0.30), rng.uniform(0.3, 3.0),
                    rng.uniform(0.3, 3.0)};
      if (soaked) m = {0.6, 0.6, 0.6, 3.0, 3.0};
      double wind = rng.uniform(0.0, 1500.0);
      if (trial % 5 == 0) wind = 0.0;
      if (trial % 11 == 0) wind = rng.uniform(4000.0, 20000.0);
      const double slope = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 1.5);
      // Upslope near north with the wind on the other side of it: the
      // combined azimuth crosses 0/360 and needs the fmod wrap.
      double upslope = rng.uniform(0.0, 360.0);
      double wind_dir = rng.uniform(0.0, 360.0);
      if (trial % 4 == 1) {
        upslope = rng.uniform(0.0, 10.0);
        wind_dir = rng.uniform(300.0, 360.0);
      } else if (trial % 4 == 2) {
        upslope = rng.uniform(350.0, 360.0);
        wind_dir = rng.uniform(0.0, 60.0);
      }
      const WindSlope ws{wind, wind_dir, slope, upslope};

      const FireBehavior want = seed::compute_fire_behavior(fuel, bed, m, ws);
      const FuelSweepState state =
          compute_fuel_sweep_state(fuel, bed, m, wind);
      const std::string where =
          "model " + std::to_string(n) + " trial " + std::to_string(trial);
      expect_bit_equal(want,
                       compute_cell_behavior(state, wind_dir, slope, upslope),
                       where);
      expect_bit_equal(want, compute_fire_behavior(fuel, bed, m, ws), where);

      unburnable += !bed.burnable;
      wet += bed.burnable && want.spread_rate_max == 0.0;
      calm += want.spread_rate_max > 0.0 && wind == 0.0;
      flat += want.spread_rate_max > 0.0 && slope == 0.0;
      limited += want.wind_limit_hit;
      wrapped += want.spread_rate_max > 0.0 &&
                 std::abs(want.azimuth_max - upslope) > 180.0;
    }
  }
  EXPECT_GT(unburnable, 0);
  EXPECT_GT(wet, 0);
  EXPECT_GT(calm, 0);
  EXPECT_GT(flat, 0);
  EXPECT_GT(limited, 0);
  EXPECT_GT(wrapped, 0);
}

TEST(RothermelSplitTest, InvalidInputsStillThrow) {
  const FuelModel& fuel = FuelCatalog::standard().model(1);
  const FuelBedIntermediates bed = compute_fuel_bed(fuel);
  MoistureSet bad = dry();
  bad.mherb = -0.2;
  EXPECT_THROW(compute_fuel_sweep_state(fuel, bed, bad, 0.0), InvalidArgument);
  EXPECT_THROW(compute_fuel_sweep_state(fuel, bed, dry(), -1.0),
               InvalidArgument);
  const FuelSweepState state = compute_fuel_sweep_state(fuel, bed, dry(), 0.0);
  EXPECT_THROW(compute_cell_behavior(state, 0.0, -0.5, 0.0), InvalidArgument);

  // The composition throws exactly where the oracle does, the too-wet early
  // return included (the slope is validated before it).
  const MoistureSet soaked{0.6, 0.6, 0.6, 3.0, 3.0};
  const std::vector<std::pair<MoistureSet, WindSlope>> cases = {
      {bad, {}},
      {dry(), {-1.0, 0.0, 0.0, 0.0}},
      {dry(), {0.0, 0.0, -0.5, 0.0}},
      {soaked, {0.0, 0.0, -0.5, 0.0}}};
  for (const auto& [m, ws] : cases) {
    EXPECT_THROW(seed::compute_fire_behavior(fuel, bed, m, ws),
                 InvalidArgument);
    EXPECT_THROW(compute_fire_behavior(fuel, bed, m, ws), InvalidArgument);
  }

  // An unburnable bed validates nothing, before and after the split.
  const FuelModel& rock = FuelCatalog::standard().model(0);
  const FuelBedIntermediates rock_bed = compute_fuel_bed(rock);
  const WindSlope negative{-1.0, 0.0, -0.5, 0.0};
  EXPECT_NO_THROW(seed::compute_fire_behavior(rock, rock_bed, bad, negative));
  EXPECT_NO_THROW(compute_fire_behavior(rock, rock_bed, bad, negative));
}

TEST(RothermelTest, LiveFuelMoistureMattersForChaparral) {
  const FireSpreadModel model;
  MoistureSet dry_live = dry();
  MoistureSet wet_live = dry();
  wet_live.mwood = 3.0;  // 300% live moisture
  dry_live.mwood = 0.5;
  const FireBehavior dry_b = model.behavior(4, dry_live, {});
  const FireBehavior wet_b = model.behavior(4, wet_live, {});
  EXPECT_GT(dry_b.reaction_intensity, wet_b.reaction_intensity);
}

}  // namespace
}  // namespace essns::firelib
