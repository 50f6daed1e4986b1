#include "synth/workloads.hpp"

#include "synth/dem.hpp"
#include "synth/weather.hpp"

namespace essns::synth {
namespace {

constexpr double kCellFt = 100.0;

firelib::Scenario plains_hidden() {
  firelib::Scenario s;
  s.model = 1;  // short grass
  s.wind_speed = 12.0;
  s.wind_dir = 45.0;
  s.m1 = 6.0;
  s.m10 = 8.0;
  s.m100 = 10.0;
  s.mherb = 60.0;
  s.slope = 5.0;
  s.aspect = 270.0;
  return s;
}

}  // namespace

Workload make_plains(int size, std::uint64_t seed) {
  firelib::FireEnvironment env(size, size, kCellFt);
  GroundTruthConfig cfg;
  cfg.hidden = plains_hidden();
  cfg.step_minutes = 45.0;
  cfg.steps = 5;
  cfg.ignition = {size / 2, size / 2};
  cfg.observation_noise = 0.02;
  return {"plains", std::move(env), cfg, {}, seed};
}

Workload make_hills(int size, std::uint64_t seed) {
  Rng rng(seed);
  firelib::FireEnvironment env(size, size, kCellFt);

  DemConfig dem_cfg;
  dem_cfg.size = size;
  dem_cfg.cell_size_ft = kCellFt;
  dem_cfg.relief_ft = 800.0;
  const Grid<double> dem = diamond_square_dem(dem_cfg, rng);
  env.set_topography(slope_from_dem(dem, kCellFt),
                     aspect_from_dem(dem, kCellFt));

  // Fuel mosaic tied to elevation: grass valleys (1), brush mid-slope (5),
  // timber litter with understory on ridges (10).
  Grid<std::uint8_t> fuel(size, size, 1);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      const double h = dem(r, c) / dem_cfg.relief_ft;
      fuel(r, c) = h < 0.35 ? 1 : (h < 0.7 ? 5 : 10);
    }
  }
  env.set_fuel_map(std::move(fuel));

  GroundTruthConfig cfg;
  cfg.hidden = plains_hidden();
  // The fuel mosaic covers every cell, so no sweep reads the hidden (or any
  // searched) fuel model, slope or aspect on this terrain.
  cfg.hidden.model = 5;
  cfg.hidden.wind_speed = 8.0;
  cfg.step_minutes = 60.0;
  cfg.steps = 5;
  cfg.ignition = {size / 2, size / 3};
  cfg.observation_noise = 0.02;
  return {"hills", std::move(env), cfg, {}, seed};
}

Workload make_rugged(int size, std::uint64_t seed) {
  Rng rng(seed);
  firelib::FireEnvironment env(size, size, kCellFt);

  DemConfig dem_cfg;
  dem_cfg.size = size;
  dem_cfg.cell_size_ft = kCellFt;
  dem_cfg.relief_ft = 1600.0;
  dem_cfg.roughness = 0.7;
  const Grid<double> dem = diamond_square_dem(dem_cfg, rng);
  env.set_topography(slope_from_dem(dem, kCellFt),
                     aspect_from_dem(dem, kCellFt));

  // Brush/timber-heavy mosaic: chaparral gullies (4), brush mid-slope (5),
  // timber litter and understory on the upper half (8, 10).
  Grid<std::uint8_t> fuel(size, size, 4);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      const double h = dem(r, c) / dem_cfg.relief_ft;
      fuel(r, c) = h < 0.25 ? 4 : (h < 0.5 ? 5 : (h < 0.75 ? 8 : 10));
    }
  }
  env.set_fuel_map(std::move(fuel));

  GroundTruthConfig cfg;
  cfg.hidden = plains_hidden();
  cfg.hidden.model = 4;  // never read: the fuel mosaic covers every cell
  cfg.hidden.wind_speed = 6.0;
  cfg.step_minutes = 60.0;
  cfg.steps = 5;
  cfg.ignition = {size / 2, size / 2};
  cfg.observation_noise = 0.02;
  return {"rugged", std::move(env), cfg, {}, seed};
}

Workload make_wind_shift(int size, std::uint64_t seed) {
  firelib::FireEnvironment env(size, size, kCellFt);
  GroundTruthConfig cfg;
  cfg.hidden = plains_hidden();
  cfg.hidden.wind_speed = 15.0;
  cfg.step_minutes = 45.0;
  cfg.steps = 5;
  cfg.ignition = {size / 2, size / 2};
  cfg.drift_sigma = 0.08;  // wind (and the rest) random-walks every step
  cfg.observation_noise = 0.02;
  return {"wind_shift", std::move(env), cfg, {}, seed};
}

std::vector<Workload> standard_workloads(int size) {
  std::vector<Workload> out;
  out.push_back(make_plains(size));
  out.push_back(make_hills(size));
  out.push_back(make_wind_shift(size));
  return out;
}

Workload make_diurnal(int size, std::uint64_t seed, double start_hour) {
  firelib::FireEnvironment env(size, size, kCellFt);
  GroundTruthConfig cfg;
  cfg.hidden = plains_hidden();
  cfg.hidden.m1 = 14.0;  // damp morning start so the fire lasts all day
  cfg.hidden.m10 = 15.0;
  cfg.hidden.m100 = 16.0;
  cfg.step_minutes = 45.0;
  cfg.steps = 5;
  cfg.ignition = {size / 2, size / 2};
  cfg.observation_noise = 0.02;

  DiurnalWeatherConfig weather;
  weather.wind_base_mph = 5.0;
  weather.wind_diurnal_mph = 4.0;
  Rng rng(seed);
  Workload out{"diurnal", std::move(env), cfg, {}, seed};
  out.scenario_sequence = diurnal_scenarios(
      weather, cfg.hidden, start_hour, cfg.step_minutes, cfg.steps, rng);
  return out;
}

GroundTruth generate_truth(const Workload& workload, Rng& rng) {
  if (!workload.scenario_sequence.empty()) {
    return generate_ground_truth(workload.environment, workload.truth_config,
                                 workload.scenario_sequence, rng);
  }
  return generate_ground_truth(workload.environment, workload.truth_config,
                               rng);
}

}  // namespace essns::synth
