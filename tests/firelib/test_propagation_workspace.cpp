#include <gtest/gtest.h>

#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"

namespace essns::firelib {
namespace {

Scenario windy_scenario() {
  Scenario s;
  s.model = 1;
  s.wind_speed = 10.0;
  s.wind_dir = 45.0;
  s.m1 = 6.0;
  s.m10 = 8.0;
  s.m100 = 10.0;
  s.mherb = 60.0;
  return s;
}

Scenario calm_scenario() {
  Scenario s;
  s.model = 5;
  s.wind_speed = 2.0;
  s.wind_dir = 200.0;
  s.m1 = 12.0;
  s.m10 = 14.0;
  s.m100 = 16.0;
  s.mherb = 120.0;
  return s;
}

FireEnvironment heterogeneous_env(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<std::uint8_t> fuel(size, size, 1);
  Grid<double> slope(size, size, 10.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      fuel(r, c) = (r + c) % 2 == 0 ? 1 : 5;
      aspect(r, c) = (r * 31 + c * 17) % 360;
    }
  }
  env.set_fuel_map(std::move(fuel));
  env.set_topography(std::move(slope), std::move(aspect));
  return env;
}

TEST(PropagationWorkspaceTest, PointIgnitionMatchesFreshPropagation) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);
  const std::vector<CellIndex> ignition{{16, 16}};

  const IgnitionMap fresh =
      propagator.propagate(env, windy_scenario(), ignition, 120.0);
  PropagationWorkspace workspace;
  const IgnitionMap& reused =
      propagator.propagate(env, windy_scenario(), ignition, 120.0, workspace);
  EXPECT_EQ(fresh, reused);
}

TEST(PropagationWorkspaceTest, ReuseAcrossScenariosIsBitIdentical) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);
  const std::vector<CellIndex> ignition{{16, 16}};
  const std::vector<Scenario> scenarios{windy_scenario(), calm_scenario(),
                                        windy_scenario()};

  // One workspace reused across all calls: each result must match a
  // fresh-state propagation of the same inputs (no state leaks through).
  PropagationWorkspace workspace;
  for (const Scenario& scenario : scenarios) {
    const IgnitionMap fresh =
        propagator.propagate(env, scenario, ignition, 120.0);
    const IgnitionMap& reused =
        propagator.propagate(env, scenario, ignition, 120.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, ReuseOnHeterogeneousTerrain) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env = heterogeneous_env(24);
  const std::vector<CellIndex> ignition{{12, 12}};

  PropagationWorkspace workspace;
  for (const Scenario& scenario : {windy_scenario(), calm_scenario()}) {
    const IgnitionMap fresh =
        propagator.propagate(env, scenario, ignition, 90.0);
    const IgnitionMap& reused =
        propagator.propagate(env, scenario, ignition, 90.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, PrefaultThenDemSweepMatchesFresh) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env = heterogeneous_env(24);
  const std::vector<CellIndex> ignition{{12, 12}};
  const IgnitionMap fresh =
      propagator.propagate(env, windy_scenario(), ignition, 150.0);

  PropagationWorkspace workspace;
  workspace.prefault(env.rows(), env.cols());
  EXPECT_EQ(fresh, propagator.propagate(env, windy_scenario(), ignition,
                                        150.0, workspace));

  // Prefault over a workspace a DEM sweep has already filled, then sweep
  // again: no per-cell travel row may survive into the next sweep.
  propagator.propagate(env, calm_scenario(), ignition, 150.0, workspace);
  workspace.prefault(env.rows(), env.cols());
  EXPECT_EQ(fresh, propagator.propagate(env, windy_scenario(), ignition,
                                        150.0, workspace));
}

TEST(PropagationWorkspaceTest, ContinuationFromInitialMapMatches) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);

  const IgnitionMap first =
      propagator.propagate(env, windy_scenario(), {{16, 16}}, 60.0);
  const IgnitionMap fresh =
      propagator.propagate(env, calm_scenario(), first, 120.0);

  PropagationWorkspace workspace;
  // Dirty the workspace with an unrelated run first.
  propagator.propagate(env, calm_scenario(), {{2, 2}}, 30.0, workspace);
  const IgnitionMap& reused =
      propagator.propagate(env, calm_scenario(), first, 120.0, workspace);
  EXPECT_EQ(fresh, reused);
}

TEST(PropagationWorkspaceTest, AdaptsToDifferentGridSizes) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  PropagationWorkspace workspace;
  for (int size : {16, 48, 24}) {
    const FireEnvironment env(size, size, 100.0);
    const std::vector<CellIndex> ignition{{size / 2, size / 2}};
    const IgnitionMap fresh =
        propagator.propagate(env, windy_scenario(), ignition, 60.0);
    const IgnitionMap& reused =
        propagator.propagate(env, windy_scenario(), ignition, 60.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, LastMapExposesMostRecentResult) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(16, 16, 100.0);
  PropagationWorkspace workspace;
  const IgnitionMap& result =
      propagator.propagate(env, windy_scenario(), {{8, 8}}, 45.0, workspace);
  EXPECT_EQ(&result, &workspace.last_map());
  EXPECT_EQ(workspace.last_map()(8, 8), 0.0);
}

TEST(PropagationWorkspaceTest, RejectsOutOfBoundsIgnition) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(16, 16, 100.0);
  PropagationWorkspace workspace;
  EXPECT_THROW(
      propagator.propagate(env, windy_scenario(), {{99, 0}}, 45.0, workspace),
      InvalidArgument);
}

}  // namespace
}  // namespace essns::firelib
