#include "ess/simulation_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "ess/statistical.hpp"
#include "obs/metrics.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class SimulationServiceTest : public ::testing::Test {
 protected:
  SimulationServiceTest() : workload_(synth::make_plains(32)) {
    Rng rng(5);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    Rng sample_rng(17);
    const auto& space = firelib::ScenarioSpace::table1();
    for (int i = 0; i < 12; ++i)
      scenarios_.push_back(space.sample(sample_rng));
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  std::vector<firelib::Scenario> scenarios_;
};

TEST_F(SimulationServiceTest, BatchEqualsSerialAcrossWorkerCounts) {
  // The reproducibility contract: simulate_batch must be bit-identical to
  // N independent simulate() calls at every worker count.
  SimulationService reference(workload_.environment, 1);
  std::vector<firelib::IgnitionMap> expected;
  for (const auto& scenario : scenarios_)
    expected.push_back(reference.simulate(scenario, truth_.fire_lines[0],
                                          truth_.step_minutes));

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    const auto maps = service.simulate_batch(scenarios_, truth_.fire_lines[0],
                                             truth_.step_minutes);
    ASSERT_EQ(maps.size(), expected.size());
    for (std::size_t i = 0; i < maps.size(); ++i) EXPECT_EQ(maps[i], expected[i]);
  }
}

TEST_F(SimulationServiceTest, FitnessBatchMatchesScalarJaccard) {
  SimulationService reference(workload_.environment, 1);
  std::vector<double> expected;
  for (const auto& scenario : scenarios_) {
    const auto map = reference.simulate(scenario, truth_.fire_lines[0],
                                        truth_.step_minutes);
    expected.push_back(
        jaccard_at(truth_.fire_lines[1], map, truth_.step_minutes, 0.0));
  }

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    const auto fitness = service.fitness_batch(
        scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
  }
}

TEST_F(SimulationServiceTest, RunBatchScoresAndKeepsMapsPerRequest) {
  SimulationService service(workload_.environment, 2);
  std::vector<SimulationRequest> requests(2);
  requests[0].scenario = &scenarios_[0];
  requests[0].start = &truth_.fire_lines[0];
  requests[0].end_time = truth_.step_minutes;
  requests[0].target = &truth_.fire_lines[1];
  requests[0].keep_map = false;
  requests[1].scenario = &scenarios_[1];
  requests[1].start = &truth_.fire_lines[0];
  requests[1].end_time = truth_.step_minutes;

  const auto results = service.run_batch(requests);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].map.empty());  // fitness-only request drops the map
  EXPECT_GE(results[0].fitness, 0.0);
  EXPECT_LE(results[0].fitness, 1.0);
  EXPECT_FALSE(results[1].map.empty());
  EXPECT_EQ(results[1].fitness, 0.0);  // no target -> unscored
}

TEST_F(SimulationServiceTest, CountsEverySimulation) {
  SimulationService service(workload_.environment, 2);
  EXPECT_EQ(service.simulations_run(), 0u);
  service.simulate_batch(scenarios_, truth_.fire_lines[0],
                         truth_.step_minutes);
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  service.simulate(scenarios_[0], truth_.fire_lines[0], truth_.step_minutes);
  EXPECT_EQ(service.simulations_run(), scenarios_.size() + 1);
}

TEST_F(SimulationServiceTest, CachedFitnessBatchMatchesUncachedBitwise) {
  // Duplicate-heavy batch: cached vs uncached results must agree bitwise at
  // every worker count, and the cache decisions (made on the master thread)
  // must be deterministic across worker counts.
  std::vector<firelib::Scenario> batch;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const auto& scenario : scenarios_) batch.push_back(scenario);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(
      batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_misses(), 0u);
  EXPECT_EQ(uncached.simulations_run(), batch.size());

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    ASSERT_EQ(service.cache_policy(), cache::CachePolicy::kStep);
    const auto fitness = service.fitness_batch(
        batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    // 12 unique scenarios simulated once; the other 24 requests hit.
    EXPECT_EQ(service.cache_misses(), scenarios_.size());
    EXPECT_EQ(service.cache_hits(), batch.size() - scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
  }
}

TEST_F(SimulationServiceTest, CacheHitsAcrossBatchesInSameContext) {
  SimulationService service(workload_.environment, 1);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_hits(), 0u);
  // Second batch over the same interval: pure hits, no new simulations.
  const auto again = service.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  // A different interval is a new context: cache cleared, all misses again.
  service.fitness_batch(scenarios_, truth_.fire_lines[1], truth_.fire_lines[2],
                        truth_.step_minutes, 2 * truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  (void)again;
}

TEST_F(SimulationServiceTest, CachedSimulateBatchKeepsMapsBitwise) {
  std::vector<firelib::Scenario> batch = scenarios_;
  batch.push_back(scenarios_[0]);  // duplicate
  batch.push_back(scenarios_[3]);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.simulate_batch(batch, truth_.fire_lines[0],
                                                truth_.step_minutes);
  SimulationService service(workload_.environment, 1);
  const auto maps =
      service.simulate_batch(batch, truth_.fire_lines[0], truth_.step_minutes);
  ASSERT_EQ(maps.size(), expected.size());
  for (std::size_t i = 0; i < maps.size(); ++i) EXPECT_EQ(maps[i], expected[i]);
  EXPECT_EQ(service.cache_hits(), 2u);
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
}

TEST_F(SimulationServiceTest, FitnessBitIdenticalAcrossCacheQueueWorkerMatrix) {
  // The uncached single-worker run is the oracle; every cache policy, queue
  // discipline and worker count must reproduce it bitwise.
  SimulationService oracle(workload_.environment, 1);
  oracle.set_cache_policy(cache::CachePolicy::kOff);
  const std::vector<double> expected = oracle.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
        cache::CachePolicy::kShared}) {
    for (const firelib::SweepQueue queue :
         {firelib::SweepQueue::kHeap, firelib::SweepQueue::kDial}) {
      for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::string("cache=") + cache::to_string(policy) +
                     " queue=" +
                     (queue == firelib::SweepQueue::kHeap ? "heap" : "dial") +
                     " workers=" + std::to_string(workers));
        SimulationService service(workload_.environment, workers);
        service.set_cache_policy(policy);
        service.set_sweep_queue(queue);
        const std::vector<double> fitness = service.fitness_batch(
            scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
            truth_.step_minutes);
        ASSERT_EQ(fitness.size(), expected.size());
        for (std::size_t i = 0; i < fitness.size(); ++i)
          EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
      }
    }
  }
}

TEST_F(SimulationServiceTest, InBatchDuplicatesCollapseBeforeTheSweep) {
  // GA crossover/elitism makes duplicate genomes routine; both cache paths
  // collapse them onto one scheduled simulation and answer the duplicates
  // from their sibling's result.
  std::vector<firelib::Scenario> dup_heavy = scenarios_;
  dup_heavy.insert(dup_heavy.end(), scenarios_.begin(), scenarios_.end());

  SimulationService oracle(workload_.environment, 1);
  oracle.set_cache_policy(cache::CachePolicy::kOff);
  const std::vector<double> expected =
      oracle.fitness_batch(dup_heavy, truth_.fire_lines[0],
                           truth_.fire_lines[1], 0.0, truth_.step_minutes);
  EXPECT_EQ(oracle.batch_dedup_hits(), 0u);

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kStep, cache::CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    SimulationService service(workload_.environment, 1);
    service.set_cache_policy(policy);
    const std::vector<double> fitness =
        service.fitness_batch(dup_heavy, truth_.fire_lines[0],
                              truth_.fire_lines[1], 0.0, truth_.step_minutes);
    EXPECT_EQ(service.batch_dedup_hits(), scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
  }
}

TEST_F(SimulationServiceTest, BatchCountersReachTheMetricsRegistry) {
  std::vector<firelib::Scenario> dup_heavy = scenarios_;
  dup_heavy.push_back(scenarios_.front());

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kStep, cache::CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    obs::MetricsRegistry* const previous = obs::metrics_registry();
    obs::MetricsRegistry registry;
    obs::install_metrics_registry(&registry);
    SimulationService service(workload_.environment, 1);
    service.set_cache_policy(policy);
    service.fitness_batch(dup_heavy, truth_.fire_lines[0],
                          truth_.fire_lines[1], 0.0, truth_.step_minutes);
    obs::install_metrics_registry(previous);

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    // One uncached batch of the distinct scenarios: the duplicate is
    // deduped away before the sweeps run.
    ASSERT_TRUE(snapshot.histograms.count("sweep.batch_size"));
    EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").count, 1u);
    EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").sum,
              static_cast<double>(scenarios_.size()));
    ASSERT_TRUE(snapshot.counters.count("sweep.batch_dedup_hits"));
    EXPECT_EQ(snapshot.counters.at("sweep.batch_dedup_hits"), 1u);
    ASSERT_TRUE(snapshot.counters.count("sweep.count"));
    EXPECT_EQ(snapshot.counters.at("sweep.count"), scenarios_.size());
  }
}

TEST_F(SimulationServiceTest, SharedPolicyMatchesOffBitwise) {
  // Duplicate-heavy batch under the shared policy: results bit-identical to
  // no caching at every worker count, with the duplicates served as hits.
  std::vector<firelib::Scenario> batch;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const auto& scenario : scenarios_) batch.push_back(scenario);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(
      batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    service.set_cache_policy(cache::CachePolicy::kShared);
    const auto fitness = service.fitness_batch(
        batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    EXPECT_EQ(service.cache_misses(), scenarios_.size());
    EXPECT_EQ(service.cache_hits(), batch.size() - scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
    EXPECT_EQ(service.cache_entries(), scenarios_.size());
    EXPECT_GT(service.cache_bytes(), 0u);
  }
}

TEST_F(SimulationServiceTest, SharedPolicySurvivesContextChanges) {
  // The step cache is wiped on a context change; the shared cache is
  // context-qualified instead, so returning to an earlier interval hits.
  SimulationService service(workload_.environment, 1);
  service.set_cache_policy(cache::CachePolicy::kShared);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  // Different interval: new context, new keys — misses again.
  service.fitness_batch(scenarios_, truth_.fire_lines[1], truth_.fire_lines[2],
                        truth_.step_minutes, 2 * truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  // Back to the first interval: pure hits, no new simulations.
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), 2 * scenarios_.size());
  EXPECT_EQ(service.cache_entries(), 2 * scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedCacheIsSharedAcrossServices) {
  // Two services (think: two concurrent campaign jobs over the same fire)
  // installing one SharedScenarioCache reuse each other's simulations.
  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService first(workload_.environment, 1);
  first.set_cache_policy(cache::CachePolicy::kShared);
  first.set_shared_cache(shared);
  SimulationService second(workload_.environment, 1);
  second.set_cache_policy(cache::CachePolicy::kShared);
  second.set_shared_cache(shared);

  const auto expected = first.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  const auto fitness = second.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  ASSERT_EQ(fitness.size(), expected.size());
  for (std::size_t i = 0; i < fitness.size(); ++i)
    EXPECT_EQ(fitness[i], expected[i]);
  EXPECT_EQ(second.cache_hits(), scenarios_.size());
  EXPECT_EQ(second.simulations_run(), 0u);
  EXPECT_EQ(shared->stats().entries, scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedCacheIsolatesDifferentEnvironments) {
  // Regression: the simulation-identity context must fingerprint the
  // terrain, not just the start map. Two jobs over different environments
  // can share a byte-identical single-cell start map and identical
  // scenarios; serving one job's map to the other would silently simulate
  // on the wrong terrain.
  firelib::IgnitionMap start(32, 32, firelib::kNeverIgnited);
  start(16, 16) = 0.0;
  const synth::Workload hills = synth::make_hills(32);

  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService on_plains(workload_.environment, 1);
  on_plains.set_cache_policy(cache::CachePolicy::kShared);
  on_plains.set_shared_cache(shared);
  SimulationService on_hills(hills.environment, 1);
  on_hills.set_cache_policy(cache::CachePolicy::kShared);
  on_hills.set_shared_cache(shared);
  SimulationService on_hills_uncached(hills.environment, 1);
  on_hills_uncached.set_cache_policy(cache::CachePolicy::kOff);

  const auto plains_maps = on_plains.simulate_batch(scenarios_, start, 90.0);
  const auto hills_maps = on_hills.simulate_batch(scenarios_, start, 90.0);
  const auto expected = on_hills_uncached.simulate_batch(scenarios_, start,
                                                         90.0);
  ASSERT_EQ(hills_maps.size(), expected.size());
  std::size_t spreads_differ = 0;
  for (std::size_t i = 0; i < hills_maps.size(); ++i) {
    EXPECT_EQ(hills_maps[i], expected[i]);
    if (!(hills_maps[i] == plains_maps[i])) ++spreads_differ;
  }
  // Slow scenarios may not spread at all on either terrain, but the batch
  // must contain fires whose plains and hills footprints disagree — the
  // case a terrain-blind cache would corrupt.
  EXPECT_GT(spreads_differ, 0u);
  EXPECT_EQ(on_hills.cache_hits(), 0u)
      << "another environment's entries must not hit";
}

TEST_F(SimulationServiceTest, StepCacheSaturationIsObservable) {
  // The step cache stops inserting at its capacity backstop; that used to
  // be silent — now entries/bytes/insertions_rejected surface it.
  SimulationService service(workload_.environment, 1);
  service.set_step_cache_capacity(4);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_entries(), 4u);
  EXPECT_GT(service.cache_bytes(), 0u);
  EXPECT_EQ(service.cache_insertions_rejected(), scenarios_.size() - 4);
  // Hit/miss accounting is unchanged by saturation (bit-for-bit contract).
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_evictions(), 0u);  // step mode never evicts
}

TEST_F(SimulationServiceTest, StatisticalStageReusesOsSweeps) {
  // Under kStep the service keeps the burned sets of the K best fitness
  // simulations of an interval, so the SS's burn_probability over them
  // runs no sweep — and still equals the uncached aggregation bit for bit.
  constexpr std::size_t kTop = 3;
  const firelib::IgnitionMap& start = truth_.fire_lines[0];
  const double end = truth_.step_minutes;
  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto aggregate = [&](const std::vector<firelib::Scenario>& set) {
    return aggregate_probability(uncached.simulate_batch(set, start, end),
                                 end);
  };

  std::vector<std::size_t> hits_by_workers;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    service.set_solution_memo_capacity(kTop);
    const std::vector<double> fitness = service.fitness_batch(
        scenarios_, start, truth_.fire_lines[1], 0.0, end);
    EXPECT_EQ(service.solution_memo_entries(), kTop);
    EXPECT_GE(service.cache_bytes(),
              kTop * workload_.environment.rows() *
                  workload_.environment.cols() / 8);

    // The K best, ties to the earlier request — what the memo keeps.
    std::vector<std::size_t> order(scenarios_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fitness[a] > fitness[b];
                     });
    ASSERT_GT(fitness[order[kTop - 1]], fitness[order[kTop]])
        << "pick scenarios without a tie at the memo's cut";
    std::vector<firelib::Scenario> best;
    for (std::size_t i = 0; i < kTop; ++i)
      best.push_back(scenarios_[order[i]]);

    const std::size_t runs_before = service.simulations_run();
    const std::size_t hits_before = service.cache_hits();
    EXPECT_EQ(service.burn_probability(best, start, end), aggregate(best));
    EXPECT_EQ(service.simulations_run(), runs_before);
    EXPECT_EQ(service.cache_hits() - hits_before, kTop);

    // A scenario outside the top K is simulated; so is the same set over
    // another interval.
    const std::vector<firelib::Scenario> outside{scenarios_[order[kTop]],
                                                 best.front()};
    EXPECT_EQ(service.burn_probability(outside, start, end),
              aggregate(outside));
    EXPECT_EQ(service.simulations_run(), runs_before + 1);
    const std::vector<firelib::Scenario> longer{best.front()};
    EXPECT_EQ(service.burn_probability(longer, start, 2.0 * end),
              aggregate_probability(
                  uncached.simulate_batch(longer, start, 2.0 * end),
                  2.0 * end));
    EXPECT_EQ(service.simulations_run(), runs_before + 2);

    // A second fitness batch over the same interval with a new target keeps
    // the memo (it is scoped to the simulation, not the score) and never
    // grows it past K.
    service.fitness_batch(scenarios_, start, truth_.fire_lines[2], 0.0, end);
    EXPECT_EQ(service.solution_memo_entries(), kTop);
    const std::size_t runs_after = service.simulations_run();
    EXPECT_EQ(service.burn_probability(best, start, end), aggregate(best));
    EXPECT_EQ(service.simulations_run(), runs_after);
    hits_by_workers.push_back(service.cache_hits());
  }
  EXPECT_EQ(hits_by_workers[0], hits_by_workers[1]);

  // kOff memoizes nothing; kShared serves the SS from its map cache.
  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    SimulationService service(workload_.environment, 2);
    service.set_cache_policy(policy);
    service.set_solution_memo_capacity(kTop);
    service.fitness_batch(scenarios_, start, truth_.fire_lines[1], 0.0, end);
    EXPECT_EQ(service.solution_memo_entries(), 0u);
    EXPECT_EQ(service.burn_probability(scenarios_, start, end),
              aggregate(scenarios_));
  }
}

TEST_F(SimulationServiceTest, SolutionMemoEvictsTheLowestFitness) {
  // Batches arrive one scenario at a time, so the memo sees every offer:
  // it must end up holding exactly the K best over the interval. Most of
  // these scenarios score 0, so the cut falls inside a tie, which keeps
  // the earlier requests.
  constexpr std::size_t kTop = 6;
  const firelib::IgnitionMap& start = truth_.fire_lines[0];
  const double end = truth_.step_minutes;
  SimulationService service(workload_.environment, 1);
  service.set_solution_memo_capacity(kTop);
  std::vector<double> fitness;
  for (const firelib::Scenario& scenario : scenarios_)
    fitness.push_back(service.fitness_batch({scenario}, start,
                                            truth_.fire_lines[1], 0.0, end)
                          .front());
  EXPECT_EQ(service.solution_memo_entries(), kTop);
  std::vector<std::size_t> order(scenarios_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return fitness[a] > fitness[b];
  });
  ASSERT_EQ(fitness[order[kTop - 1]], fitness[order[kTop]])
      << "the cut should fall inside a tie";
  for (std::size_t rank = 0; rank < scenarios_.size(); ++rank) {
    const std::size_t runs_before = service.simulations_run();
    service.burn_probability({scenarios_[order[rank]]}, start, end);
    EXPECT_EQ(service.simulations_run() - runs_before, rank < kTop ? 0u : 1u)
        << "rank " << rank;
  }
}

TEST_F(SimulationServiceTest, ReferenceKernelsMatchFastKernels) {
  SimulationService fast(workload_.environment, 1);
  fast.set_cache_policy(cache::CachePolicy::kOff);
  SimulationService reference(workload_.environment, 1);
  reference.set_cache_policy(cache::CachePolicy::kOff);
  reference.set_reference_kernels(true);
  const auto got = fast.fitness_batch(scenarios_, truth_.fire_lines[0],
                                      truth_.fire_lines[1], 0.0,
                                      truth_.step_minutes);
  const auto want = reference.fitness_batch(scenarios_, truth_.fire_lines[0],
                                            truth_.fire_lines[1], 0.0,
                                            truth_.step_minutes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST_F(SimulationServiceTest, EmptyBatchIsANoOp) {
  SimulationService service(workload_.environment, 2);
  EXPECT_TRUE(service.simulate_batch({}, truth_.fire_lines[0],
                                     truth_.step_minutes)
                  .empty());
  EXPECT_EQ(service.simulations_run(), 0u);
}

TEST_F(SimulationServiceTest, ReportsWorkerCount) {
  EXPECT_EQ(SimulationService(workload_.environment, 1).workers(), 1u);
  EXPECT_EQ(SimulationService(workload_.environment, 3).workers(), 3u);
}

TEST_F(SimulationServiceTest, RejectsZeroWorkers) {
  EXPECT_THROW(SimulationService(workload_.environment, 0), InvalidArgument);
}

TEST_F(SimulationServiceTest, RejectsUnsetRequestPointers) {
  SimulationService service(workload_.environment, 1);
  std::vector<SimulationRequest> requests(1);  // scenario/start left null
  EXPECT_THROW(service.run_batch(requests), InvalidArgument);
}

TEST_F(SimulationServiceTest, BurnProbabilityAggregatesMasksBitIdentically) {
  // burn_probability sums the burned sets each simulation's epilogue
  // packs (or, on a cache hit, packs from the stored map), never a map
  // batch. Every policy must equal aggregate_probability over an uncached map
  // batch bit for bit, on uniform and DEM terrain, at every worker count.
  // Under step and shared the mask-only batch is planned like the map
  // batch it replaced (in-batch duplicates are hits, each distinct
  // scenario one miss); step keeps no entry, shared keeps the maps.
  const synth::Workload hills = synth::make_hills(32);
  Rng rng(5);
  const synth::GroundTruth hills_truth = synth::generate_ground_truth(
      hills.environment, hills.truth_config, rng);
  constexpr std::size_t kDuplicates = 4;
  std::vector<firelib::Scenario> batch = scenarios_;
  batch.insert(batch.end(), scenarios_.begin(),
               scenarios_.begin() + kDuplicates);

  struct Terrain {
    const char* name;
    const synth::Workload* workload;
    const synth::GroundTruth* truth;
  };
  for (const Terrain& terrain : {Terrain{"plains", &workload_, &truth_},
                                 Terrain{"hills", &hills, &hills_truth}}) {
    const firelib::FireEnvironment& env = terrain.workload->environment;
    const firelib::IgnitionMap& start = terrain.truth->fire_lines[1];
    const double end = 2.0 * terrain.truth->step_minutes;
    SimulationService uncached(env, 1);
    uncached.set_cache_policy(cache::CachePolicy::kOff);
    const Grid<double> expected =
        aggregate_probability(uncached.simulate_batch(batch, start, end), end);

    for (const cache::CachePolicy policy :
         {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
          cache::CachePolicy::kShared}) {
      for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::string(terrain.name) + " cache=" +
                     cache::to_string(policy) +
                     " workers=" + std::to_string(workers));
        SimulationService service(env, workers);
        service.set_cache_policy(policy);
        EXPECT_EQ(service.burn_probability(batch, start, end), expected);
        if (policy == cache::CachePolicy::kOff) {
          EXPECT_EQ(service.cache_hits(), 0u);
          EXPECT_EQ(service.cache_misses(), 0u);
          EXPECT_EQ(service.simulations_run(), batch.size());
        } else {
          EXPECT_EQ(service.cache_hits(), kDuplicates);
          EXPECT_EQ(service.cache_misses(), scenarios_.size());
          EXPECT_EQ(service.batch_dedup_hits(), kDuplicates);
          EXPECT_EQ(service.simulations_run(), scenarios_.size());
        }
        if (policy == cache::CachePolicy::kStep) {
          EXPECT_EQ(service.cache_entries(), 0u);
        }
        if (policy == cache::CachePolicy::kShared) {
          // Each miss stored its map: a later map batch (a re-prediction)
          // is served whole from the cache, bit for bit.
          EXPECT_EQ(service.simulate_batch(batch, start, end),
                    uncached.simulate_batch(batch, start, end));
          EXPECT_EQ(service.simulations_run(), scenarios_.size());
        }
      }
    }
  }
}

TEST_F(SimulationServiceTest, DuplicatesWithMixedMaskFloorsEachGetTheirMask) {
  // A batch may repeat a scenario with different mask floors: the request
  // that asks for a mask must get one even when an earlier duplicate (the
  // one scheduled) did not, in either order, under every policy.
  const firelib::IgnitionMap& start = truth_.fire_lines[0];
  const double end = truth_.step_minutes;
  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const firelib::IgnitionMap map = uncached.simulate(scenarios_[0], start, end);
  std::vector<std::uint64_t> expected((map.size() + 63) / 64);
  score_burned(nullptr, map, end, 0.0, simd::Isa::kScalar, expected.data());

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
        cache::CachePolicy::kShared}) {
    for (const bool mask_first : {false, true}) {
      SCOPED_TRACE(std::string(cache::to_string(policy)) +
                   (mask_first ? " mask first" : " map first"));
      std::vector<SimulationRequest> requests(2);
      for (SimulationRequest& req : requests) {
        req.scenario = &scenarios_[0];
        req.start = &start;
        req.end_time = end;
      }
      SimulationRequest& masked = requests[mask_first ? 0 : 1];
      masked.keep_map = false;
      masked.mask_floor = -std::numeric_limits<double>::infinity();

      SimulationService service(workload_.environment, 1);
      service.set_cache_policy(policy);
      const std::vector<SimulationResult> results = service.run_batch(requests);
      const SimulationResult& mask_result = results[mask_first ? 0 : 1];
      const SimulationResult& map_result = results[mask_first ? 1 : 0];
      EXPECT_EQ(mask_result.mask, expected);
      EXPECT_TRUE(mask_result.map.empty());
      EXPECT_EQ(map_result.map, map);
      EXPECT_TRUE(map_result.mask.empty());  // its floor is +infinity
      EXPECT_EQ(service.simulations_run(),
                policy == cache::CachePolicy::kOff ? 2u : 1u);
    }
  }
}

TEST_F(SimulationServiceTest, StepContextInvalidatesOnInPlaceMutation) {
  // The step cache is scoped by pointer AND content: a start or target map
  // mutated in place behind the same pointer must not be served the old
  // context's scores.
  firelib::IgnitionMap start = truth_.fire_lines[0];
  firelib::IgnitionMap target = truth_.fire_lines[1];
  const double end = truth_.step_minutes;
  ASSERT_EQ(start(0, 0), firelib::kNeverIgnited);
  ASSERT_EQ(target(0, 0), firelib::kNeverIgnited);
  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  SimulationService service(workload_.environment, 1);
  const std::size_t n = scenarios_.size();
  const auto score = [&](std::size_t expected_runs) {
    const std::vector<double> fitness =
        service.fitness_batch(scenarios_, start, target, 0.0, end);
    EXPECT_EQ(fitness,
              uncached.fitness_batch(scenarios_, start, target, 0.0, end));
    EXPECT_EQ(service.simulations_run(), expected_runs);
    return fitness;
  };

  const std::vector<double> first = score(n);
  EXPECT_EQ(score(n), first);  // same content: every request a hit
  target(0, 0) = 0.5 * end;    // the real fire gains a cell in place
  const std::vector<double> retargeted = score(2 * n);
  EXPECT_NE(retargeted, first);
  start(0, 0) = 0.0;  // a second ignition in the start map, in place
  EXPECT_NE(score(3 * n), retargeted);
}

TEST_F(SimulationServiceTest, TerrainOverriddenGenesShareOneSweep) {
  // With a fuel map and a topography no sweep reads the model, slope or
  // aspect genes, so two scenarios that differ only there cost one sweep
  // on hills; on plains those genes shape the fire and cost one each.
  const synth::Workload hills = synth::make_hills(32);
  Rng rng(5);
  const synth::GroundTruth hills_truth = synth::generate_ground_truth(
      hills.environment, hills.truth_config, rng);
  firelib::Scenario a = scenarios_[0];
  a.wind_speed = 10.0;  // a fire that spreads on both terrains
  firelib::Scenario b = a;
  b.model = a.model % 13 + 1;
  b.slope = 0.5 * a.slope + 1.0;
  b.aspect = std::fmod(a.aspect + 90.0, 360.0);
  const std::vector<firelib::Scenario> pair{a, b};

  struct Terrain {
    const char* name;
    const synth::Workload* workload;
    const synth::GroundTruth* truth;
    std::size_t sweeps;
  };
  for (const Terrain& terrain :
       {Terrain{"plains", &workload_, &truth_, 2},
        Terrain{"hills", &hills, &hills_truth, 1}}) {
    const firelib::FireEnvironment& env = terrain.workload->environment;
    const auto& lines = terrain.truth->fire_lines;
    const double end = terrain.truth->step_minutes;
    SimulationService uncached(env, 1);
    uncached.set_cache_policy(cache::CachePolicy::kOff);
    const std::vector<double> expected =
        uncached.fitness_batch(pair, lines[0], lines[1], 0.0, end);
    for (const cache::CachePolicy policy :
         {cache::CachePolicy::kStep, cache::CachePolicy::kShared}) {
      SCOPED_TRACE(std::string(terrain.name) + " cache=" +
                   cache::to_string(policy));
      SimulationService service(env, 1);
      service.set_cache_policy(policy);
      EXPECT_EQ(service.fitness_batch(pair, lines[0], lines[1], 0.0, end),
                expected);
      EXPECT_EQ(service.simulations_run(), terrain.sweeps);
      EXPECT_EQ(service.cache_misses(), terrain.sweeps);
    }
  }
}

}  // namespace
}  // namespace essns::ess
