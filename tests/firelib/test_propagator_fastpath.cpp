// Equivalence property tests for the precomputed-field sweep fast paths:
// uniform-topography travel-time tables and the DEM per-cell behavior field
// must reproduce the reference (per-pop behavior + trig) sweep bit for bit,
// over randomized scenarios, terrains and horizons.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "obs/metrics.hpp"

namespace essns::firelib {
namespace {

FireEnvironment uniform_env(int size) { return FireEnvironment(size, size, 100.0); }

FireEnvironment fuel_mosaic_env(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<std::uint8_t> fuel(size, size, 1);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      const int code = (r * 7 + c * 3) % 15;
      fuel(r, c) = static_cast<std::uint8_t>(code > 13 ? 0 : code);  // 0 = rock
    }
  env.set_fuel_map(std::move(fuel));
  return env;
}

FireEnvironment dem_env(int size, bool with_fuel, double cell_ft = 100.0) {
  FireEnvironment env(size, size, cell_ft);
  Grid<double> slope(size, size, 0.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      slope(r, c) = (r * 13 + c * 5) % 40;
      aspect(r, c) = (r * 31 + c * 17) % 360;
    }
  env.set_topography(std::move(slope), std::move(aspect));
  if (with_fuel) {
    Grid<std::uint8_t> fuel(size, size, 1);
    for (int r = 0; r < size; ++r)
      for (int c = 0; c < size; ++c)
        fuel(r, c) = static_cast<std::uint8_t>((r + 2 * c) % 14);
    env.set_fuel_map(std::move(fuel));
  }
  return env;
}

void expect_fast_matches_reference(const FireEnvironment& env) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  ASSERT_FALSE(fast.reference_sweep());
  ASSERT_TRUE(reference.reference_sweep());

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  PropagationWorkspace fast_ws;
  PropagationWorkspace reference_ws;
  for (int trial = 0; trial < 25; ++trial) {
    const Scenario scenario = space.sample(rng);
    const double horizon = rng.uniform(10.0, 300.0);
    const std::vector<CellIndex> ignition{
        {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
         static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

    const IgnitionMap& got =
        fast.propagate(env, scenario, ignition, horizon, fast_ws);
    const IgnitionMap& want =
        reference.propagate(env, scenario, ignition, horizon, reference_ws);
    ASSERT_EQ(got, want) << "trial " << trial << " scenario "
                         << scenario.to_string();
  }
}

TEST(PropagatorFastPathTest, UniformTopographyMatchesReference) {
  expect_fast_matches_reference(uniform_env(32));
}

TEST(PropagatorFastPathTest, FuelMosaicMatchesReference) {
  expect_fast_matches_reference(fuel_mosaic_env(32));
}

TEST(PropagatorFastPathTest, DemMatchesReference) {
  expect_fast_matches_reference(dem_env(24, /*with_fuel=*/false));
}

TEST(PropagatorFastPathTest, DemWithFuelMosaicMatchesReference) {
  expect_fast_matches_reference(dem_env(24, /*with_fuel=*/true));
}

TEST(PropagatorFastPathTest, ContinuationFromMapMatchesReference) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  const FireEnvironment env = uniform_env(32);

  const auto& space = ScenarioSpace::table1();
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Scenario first = space.sample(rng);
    const Scenario second = space.sample(rng);
    const IgnitionMap start =
        fast.propagate(env, first, {{16, 16}}, 60.0);
    EXPECT_EQ(fast.propagate(env, second, start, 180.0),
              reference.propagate(env, second, start, 180.0))
        << "trial " << trial;
  }
}

TEST(PropagatorFastPathTest, DemRepopsMatchReferenceAcrossQueuesAndSimd) {
  // A seed map that is not a fixed point of the sweep: a third of the
  // cells are sources with random times, so most are reached earlier than
  // seeded and re-pushed. With 5 ft cells a crossing takes less than a
  // dial bucket's width, so the dial queue (which drains a bucket's
  // arrivals out of time order) pops some cells twice. The DEM fast path
  // runs a cell's tail at every pop that can still improve a neighbour,
  // and must match the reference sweep under every queue and kernel.
  const FireSpreadModel model;
  const FireEnvironment env = dem_env(24, /*with_fuel=*/true, /*cell_ft=*/5.0);
  const auto& space = ScenarioSpace::table1();
  Rng rng(99);
  std::uint64_t repopped_sweeps = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Scenario scenario = space.sample(rng);
    IgnitionMap initial(env.rows(), env.cols(), kNeverIgnited);
    for (double& t : initial)
      if (rng.bernoulli(0.33)) t = rng.uniform(0.0, 600.0);
    const double horizon = rng.uniform(300.0, 900.0);

    for (const SweepQueue queue : {SweepQueue::kHeap, SweepQueue::kDial}) {
      FirePropagator reference(model);
      reference.set_reference_sweep(true);
      reference.set_sweep_queue(queue);
      const IgnitionMap want =
          reference.propagate(env, scenario, initial, horizon);
      for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
        if (mode == simd::Mode::kAvx2 && !simd::cpu_supports_avx2()) continue;
        SCOPED_TRACE(std::string("trial ") + std::to_string(trial) +
                     (queue == SweepQueue::kDial ? " dial " : " heap ") +
                     simd::to_string(mode));
        FirePropagator fast(model);
        fast.set_sweep_queue(queue);
        fast.set_simd_mode(mode);
        obs::MetricsRegistry* const previous = obs::metrics_registry();
        obs::MetricsRegistry registry;
        obs::install_metrics_registry(&registry);
        PropagationWorkspace workspace;
        const IgnitionMap& got =
            fast.propagate(env, scenario, initial, horizon, workspace);
        obs::install_metrics_registry(previous);
        ASSERT_EQ(got, want);

        std::uint64_t reached = 0;
        for (const double t : got) reached += t < kNeverIgnited;
        const std::uint64_t popped =
            registry.snapshot().counters.at("sweep.cells_popped");
        EXPECT_GE(popped, reached);
        repopped_sweeps += popped > reached;
      }
    }
  }
  EXPECT_GT(repopped_sweeps, 0u) << "no sweep popped a cell twice";
}

TEST(PropagatorFastPathTest, RejectsOutOfCatalogFuelCodes) {
  // The sweep indexes fixed 14-entry per-model tables; codes above the
  // standard catalog must be rejected at set_fuel_map, not read out of
  // bounds at propagation time.
  FireEnvironment env(8, 8, 100.0);
  Grid<std::uint8_t> fuel(8, 8, 1);
  fuel(3, 3) = 14;
  EXPECT_THROW(env.set_fuel_map(std::move(fuel)), InvalidArgument);
}

TEST(PropagatorFastPathTest, ZeroHorizonMatchesReference) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 8.0;
  EXPECT_EQ(fast.propagate(env, s, {{8, 8}}, 0.0),
            reference.propagate(env, s, {{8, 8}}, 0.0));
}

}  // namespace
}  // namespace essns::firelib
