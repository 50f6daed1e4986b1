// Bit-exactness property tests for the vectorized relax kernel: the AVX2
// 8-lane kernel must reproduce the scalar oracle exactly — at the kernel
// level (same admission mask, same arrival bits) and through whole sweeps
// (identical ignition maps AND identical push order, which the dial queue's
// epoch mechanism makes observable) — across heap/dial queues,
// uniform/fuel-mosaic/DEM terrains, point and continuation seeding, and the
// whole default campaign catalog. On hosts without AVX2 the vector-specific
// tests skip with a notice; mode resolution and the scalar fallback are
// still exercised.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/relax_kernel.hpp"
#include "firelib/scenario.hpp"
#include "synth/catalog.hpp"

namespace essns::firelib {
namespace {

FireEnvironment uniform_env(int size) {
  return FireEnvironment(size, size, 100.0);
}

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

FireEnvironment dem_env(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<double> slope(size, size, 0.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      slope(r, c) = (r * 13 + c * 5) % 40;
      aspect(r, c) = (r * 31 + c * 17) % 360;
    }
  env.set_topography(std::move(slope), std::move(aspect));
  return env;
}

/// DEM slopes over the fuel mosaic: rock cells sit next to interior cells,
/// so the kernel's burnable mask is exercised on per-cell travel rows.
FireEnvironment dem_mosaic_env(int size) {
  FireEnvironment env = fuel_mosaic_env(size);
  Grid<double> slope(size, size, 0.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      slope(r, c) = (r * 11 + c * 7) % 45;
      aspect(r, c) = (r * 23 + c * 41) % 360;
    }
  env.set_topography(std::move(slope), std::move(aspect));
  return env;
}

bool host_has_avx2() { return simd::detected_isa() == simd::Isa::kAvx2; }

TEST(SimdRelaxKernelTest, ModeResolutionOnPropagator) {
  const FireSpreadModel model;
  FirePropagator propagator(model);
  EXPECT_EQ(propagator.simd_mode(), simd::Mode::kAuto);
  EXPECT_EQ(propagator.simd_isa(), simd::detected_isa());
  propagator.set_simd_mode(simd::Mode::kScalar);
  EXPECT_EQ(propagator.simd_isa(), simd::Isa::kScalar);
  // Requesting avx2 on a host without it degrades to scalar, never traps.
  propagator.set_simd_mode(simd::Mode::kAvx2);
  EXPECT_EQ(propagator.simd_isa(), simd::detected_isa());
}

// Kernel-level oracle check: random times slabs, travel rows (including
// kNeverIgnited lanes — directions the model does not spread), random fuel
// byte patterns including rock, and horizons interleaved with the arrival
// range. Mask and all eight arrival doubles must match bit for bit.
TEST(SimdRelaxKernelTest, Avx2MatchesScalarOracleOnRandomLanes) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";

  constexpr int kCols = 8;
  const NeighbourOffsets offsets = NeighbourOffsets::for_cols(kCols);
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    AlignedVector<double> times(kCols * 3);
    for (double& t : times)
      t = rng.uniform(0.0, 1.0) < 0.3 ? kNeverIgnited
                                      : rng.uniform(0.0, 500.0);
    alignas(64) std::array<double, 8> travel;
    for (double& tt : travel)
      tt = rng.uniform(0.0, 1.0) < 0.2 ? kNeverIgnited
                                       : rng.uniform(0.1, 200.0);
    AlignedVector<std::uint8_t> fuel(kCols * 3, 1);
    const bool with_fuel = rng.uniform(0.0, 1.0) < 0.5;
    if (with_fuel)
      for (std::uint8_t& f : fuel)
        f = static_cast<std::uint8_t>(rng.uniform_int(0, 13));

    const std::size_t cell = kCols + 1 + static_cast<std::size_t>(
                                             rng.uniform_int(0, kCols - 3));
    const double time = rng.uniform(0.0, 300.0);
    const double horizon = rng.uniform(0.0, 600.0);

    alignas(32) double scalar_arrivals[8];
    alignas(32) double avx2_arrivals[8];
    const unsigned scalar_mask = relax8_candidates_scalar(
        travel.data(), times.data(), with_fuel ? fuel.data() : nullptr, cell,
        offsets, time, horizon, scalar_arrivals);
    const unsigned avx2_mask = relax8_candidates_avx2(
        travel.data(), times.data(), with_fuel ? fuel.data() : nullptr, cell,
        offsets, time, horizon, avx2_arrivals);

    ASSERT_EQ(scalar_mask, avx2_mask) << "trial " << trial;
    ASSERT_EQ(std::memcmp(scalar_arrivals, avx2_arrivals, sizeof scalar_arrivals),
              0)
        << "trial " << trial;
  }
}

/// AVX2 and scalar sweeps over the same inputs must be bit-identical, under
/// both queue disciplines, from point ignitions and continuation maps. The
/// reference path ignores the mode knob by design; included to prove the
/// knob cannot disturb it.
void expect_simd_matches(const FireEnvironment& env) {
  const FireSpreadModel model;
  for (const SweepQueue queue : {SweepQueue::kHeap, SweepQueue::kDial}) {
    for (const bool reference : {false, true}) {
      FirePropagator scalar(model);
      scalar.set_sweep_queue(queue);
      scalar.set_reference_sweep(reference);
      scalar.set_simd_mode(simd::Mode::kScalar);
      FirePropagator vector(model);
      vector.set_sweep_queue(queue);
      vector.set_reference_sweep(reference);
      vector.set_simd_mode(simd::Mode::kAvx2);

      const auto& space = ScenarioSpace::table1();
      Rng rng(4242);
      PropagationWorkspace scalar_ws, vector_ws;
      for (int trial = 0; trial < 12; ++trial) {
        const Scenario scenario = space.sample(rng);
        const double horizon = rng.uniform(10.0, 300.0);
        const std::vector<CellIndex> ignition{
            {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
             static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

        const IgnitionMap& from_scalar =
            scalar.propagate(env, scenario, ignition, horizon, scalar_ws);
        const IgnitionMap& from_vector =
            vector.propagate(env, scenario, ignition, horizon, vector_ws);
        ASSERT_EQ(from_scalar, from_vector)
            << (queue == SweepQueue::kHeap ? "heap" : "dial") << "/"
            << (reference ? "reference" : "fast") << " trial " << trial
            << " scenario " << scenario.to_string();

        // Continue from the scalar result with a fresh scenario: many
        // finite seeds at once, the widest frontier the kernel sees.
        const Scenario next = space.sample(rng);
        const IgnitionMap start = from_scalar;
        ASSERT_EQ(
            scalar.propagate(env, next, start, horizon + 60.0, scalar_ws),
            vector.propagate(env, next, start, horizon + 60.0, vector_ws))
            << (queue == SweepQueue::kHeap ? "heap" : "dial")
            << " continuation trial " << trial;
      }
    }
  }
}

TEST(SimdRelaxSweepTest, UniformTopographyScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(uniform_env(32));
}

TEST(SimdRelaxSweepTest, FuelMosaicScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(fuel_mosaic_env(32));
}

TEST(SimdRelaxSweepTest, DemScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(dem_env(24));
}

TEST(SimdRelaxSweepTest, DemFuelMosaicScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  const FireEnvironment env = dem_mosaic_env(32);
  expect_simd_matches(env);

  // The vector DEM path against the per-cell-Rothermel reference sweep,
  // from a central ignition so the frontier crosses many rock cells.
  const FireSpreadModel model;
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAvx2);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  const auto& space = ScenarioSpace::table1();
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const Scenario scenario = space.sample(rng);
    const std::vector<CellIndex> ignition{{16, 16}};
    ASSERT_EQ(vector.propagate(env, scenario, ignition, 240.0),
              reference.propagate(env, scenario, ignition, 240.0))
        << "trial " << trial << " scenario " << scenario.to_string();
  }
}

TEST(SimdRelaxSweepTest, TieHeavyCalmSpreadMatches) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  // Zero wind: the maximum number of exactly-equal arrival times — any
  // push-order difference between kernels surfaces as a tie-break change.
  const FireSpreadModel model;
  FirePropagator scalar(model);
  scalar.set_simd_mode(simd::Mode::kScalar);
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAvx2);
  const FireEnvironment env = uniform_env(41);
  Scenario s;
  s.model = 1;
  s.wind_speed = 0.0;
  s.m1 = 5.0;
  s.m10 = 6.0;
  s.m100 = 8.0;
  s.mherb = 40.0;
  const std::vector<CellIndex> many{
      {0, 0}, {0, 40}, {40, 0}, {40, 40}, {20, 20}};
  EXPECT_EQ(scalar.propagate(env, s, many, 240.0),
            vector.propagate(env, s, many, 240.0));
}

TEST(SimdRelaxSweepTest, DefaultCampaignCatalogIsBitIdentical) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  ASSERT_FALSE(catalog.empty());

  const FireSpreadModel model;
  FirePropagator scalar(model);
  scalar.set_simd_mode(simd::Mode::kScalar);
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAvx2);

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  PropagationWorkspace scalar_ws, vector_ws;
  for (const synth::Workload& workload : catalog) {
    const FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      ASSERT_EQ(
          scalar.propagate(env, scenario, ignition, horizon, scalar_ws),
          vector.propagate(env, scenario, ignition, horizon, vector_ws))
          << workload.name << " trial " << trial;
    }
  }
}

TEST(SimdRelaxSweepTest, ScalarFallbackRunsEverywhere) {
  // No skip: whatever the host, forcing scalar must produce a normal sweep
  // (this is the non-AVX2 CI lane's whole coverage of the mode knob).
  const FireSpreadModel model;
  FirePropagator propagator(model);
  propagator.set_simd_mode(simd::Mode::kScalar);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 6.0;
  const IgnitionMap out = propagator.propagate(env, s, {{8, 8}}, 90.0);
  EXPECT_EQ(out(8, 8), 0.0);
  EXPECT_GT(burned_count(out, 90.0), 1u);
}

}  // namespace
}  // namespace essns::firelib
