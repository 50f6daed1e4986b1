#include "ess/pipeline.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "ess/essim.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : workload_(synth::make_plains(32)) {
    Rng rng(7);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    config_.stop = {8, 0.95};
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  PipelineConfig config_;
};

TEST_F(PipelineTest, ProducesOneReportPerPredictableStep) {
  PredictionPipeline pipeline(workload_.environment, truth_, config_);
  core::NsGaConfig ns;
  ns.population_size = 10;
  ns.offspring_count = 10;
  NsGaOptimizer optimizer(ns);
  Rng rng(1);
  const PipelineResult result = pipeline.run(optimizer, rng);
  // 5 ground-truth steps: predictions for t2..t5.
  EXPECT_EQ(result.steps.size(), 4u);
  EXPECT_EQ(result.optimizer_name, "ESS-NS");
  for (std::size_t i = 0; i < result.steps.size(); ++i)
    EXPECT_EQ(result.steps[i].step, static_cast<int>(i) + 2);
}

TEST_F(PipelineTest, QualitiesAndKignInRange) {
  PredictionPipeline pipeline(workload_.environment, truth_, config_);
  GaOptimizer optimizer;
  Rng rng(2);
  const PipelineResult result = pipeline.run(optimizer, rng);
  for (const auto& step : result.steps) {
    EXPECT_GE(step.prediction_quality, 0.0);
    EXPECT_LE(step.prediction_quality, 1.0);
    EXPECT_GT(step.kign, 0.0);
    EXPECT_LE(step.kign, 1.0);
    EXPECT_GE(step.calibration_fitness, 0.0);
    EXPECT_LE(step.calibration_fitness, 1.0);
    EXPECT_GT(step.os_evaluations, 0u);
    EXPECT_GT(step.solution_count, 0u);
  }
  EXPECT_GT(result.total_evaluations(), 0u);
  EXPECT_GE(result.total_seconds(), 0.0);
}

TEST_F(PipelineTest, PredictionBeatsNaiveThresholdBaseline) {
  // The DDM-MOS premise: the calibrated ensemble beats predicting "nothing
  // new burns" (quality 0 vs any burned growth). We check mean quality is
  // meaningfully positive on the easy plains case.
  PredictionPipeline pipeline(workload_.environment, truth_, config_);
  core::NsGaConfig ns;
  ns.population_size = 12;
  ns.offspring_count = 12;
  NsGaOptimizer optimizer(ns);
  Rng rng(3);
  const PipelineResult result = pipeline.run(optimizer, rng);
  EXPECT_GT(result.mean_quality(), 0.3);
}

TEST_F(PipelineTest, DeterministicForSameSeed) {
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig cfg = config_;
  cfg.stop = {4, 0.95};
  PredictionPipeline p1(workload_.environment, truth_, cfg);
  PredictionPipeline p2(workload_.environment, truth_, cfg);
  NsGaOptimizer o1(ns), o2(ns);
  Rng a(9), b(9);
  const auto r1 = p1.run(o1, a);
  const auto r2 = p2.run(o2, b);
  ASSERT_EQ(r1.steps.size(), r2.steps.size());
  for (std::size_t i = 0; i < r1.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.steps[i].prediction_quality,
                     r2.steps[i].prediction_quality);
    EXPECT_DOUBLE_EQ(r1.steps[i].kign, r2.steps[i].kign);
  }
}

TEST_F(PipelineTest, ParallelWorkersGiveSameQualityShape) {
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig serial_cfg = config_;
  serial_cfg.stop = {4, 0.95};
  serial_cfg.workers = 1;
  PipelineConfig parallel_cfg = serial_cfg;
  parallel_cfg.workers = 3;

  PredictionPipeline ps(workload_.environment, truth_, serial_cfg);
  PredictionPipeline pp(workload_.environment, truth_, parallel_cfg);
  NsGaOptimizer o1(ns), o2(ns);
  Rng a(4), b(4);
  const auto rs = ps.run(o1, a);
  const auto rp = pp.run(o2, b);
  // Same RNG and deterministic evaluation: identical results regardless of
  // worker count (order preservation in MasterWorker).
  ASSERT_EQ(rs.steps.size(), rp.steps.size());
  for (std::size_t i = 0; i < rs.steps.size(); ++i)
    EXPECT_DOUBLE_EQ(rs.steps[i].prediction_quality,
                     rp.steps[i].prediction_quality);
}

TEST_F(PipelineTest, SerialAndParallelStepReportsBitIdentical) {
  // Acceptance contract of the batched SimulationService: at a fixed seed
  // every numeric field of every StepReport (except wall-clock timings) is
  // bit-identical between workers == 1 and workers == 4.
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig serial_cfg = config_;
  serial_cfg.stop = {4, 0.95};
  serial_cfg.workers = 1;
  PipelineConfig parallel_cfg = serial_cfg;
  parallel_cfg.workers = 4;

  PredictionPipeline ps(workload_.environment, truth_, serial_cfg);
  PredictionPipeline pp(workload_.environment, truth_, parallel_cfg);
  NsGaOptimizer o1(ns), o2(ns);
  Rng a(11), b(11);
  const auto rs = ps.run(o1, a);
  const auto rp = pp.run(o2, b);
  ASSERT_EQ(rs.steps.size(), rp.steps.size());
  for (std::size_t i = 0; i < rs.steps.size(); ++i) {
    const StepReport& s = rs.steps[i];
    const StepReport& p = rp.steps[i];
    EXPECT_EQ(s.step, p.step);
    EXPECT_EQ(s.kign, p.kign);
    EXPECT_EQ(s.calibration_fitness, p.calibration_fitness);
    EXPECT_EQ(s.best_os_fitness, p.best_os_fitness);
    EXPECT_EQ(s.prediction_quality, p.prediction_quality);
    EXPECT_EQ(s.os_evaluations, p.os_evaluations);
    EXPECT_EQ(s.os_generations, p.os_generations);
    EXPECT_EQ(s.solution_count, p.solution_count);
  }
  EXPECT_EQ(ps.last_probability(), pp.last_probability());
  EXPECT_EQ(ps.last_prediction(), pp.last_prediction());
}

TEST_F(PipelineTest, CachePoliciesGiveBitIdenticalResults) {
  // The scenario cache is a pure memoization: with a fixed seed, every
  // numeric outcome must match the uncached pipeline bit for bit under the
  // step AND shared policies, while the step reports record the cache's
  // activity.
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig uncached_cfg = config_;
  uncached_cfg.stop = {4, 0.95};
  uncached_cfg.cache_policy = cache::CachePolicy::kOff;

  PredictionPipeline pu(workload_.environment, truth_, uncached_cfg);
  NsGaOptimizer ou(ns);
  Rng ru_rng(13);
  const auto ru = pu.run(ou, ru_rng);
  EXPECT_EQ(ru.total_cache_hits(), 0u);
  EXPECT_EQ(ru.cache_hit_rate(), 0.0);
  EXPECT_EQ(ru.max_cache_bytes(), 0u);

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kStep, cache::CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    PipelineConfig cached_cfg = uncached_cfg;
    cached_cfg.cache_policy = policy;
    PredictionPipeline pc(workload_.environment, truth_, cached_cfg);
    NsGaOptimizer oc(ns);
    Rng rc_rng(13);
    const auto rc = pc.run(oc, rc_rng);
    ASSERT_EQ(rc.steps.size(), ru.steps.size());
    for (std::size_t i = 0; i < rc.steps.size(); ++i) {
      EXPECT_EQ(rc.steps[i].kign, ru.steps[i].kign);
      EXPECT_EQ(rc.steps[i].calibration_fitness,
                ru.steps[i].calibration_fitness);
      EXPECT_EQ(rc.steps[i].best_os_fitness, ru.steps[i].best_os_fitness);
      EXPECT_EQ(rc.steps[i].prediction_quality,
                ru.steps[i].prediction_quality);
      // Cache bookkeeping: active when enabled, silent when disabled.
      EXPECT_GT(rc.steps[i].cache_misses, 0u);
      EXPECT_GT(rc.steps[i].cache_bytes, 0u);
      EXPECT_EQ(ru.steps[i].cache_hits + ru.steps[i].cache_misses, 0u);
    }
    EXPECT_EQ(pc.last_probability(), pu.last_probability());
    EXPECT_EQ(pc.last_prediction(), pu.last_prediction());
  }
}

TEST_F(PipelineTest, SharedPolicyKeepsEntriesAcrossSteps) {
  // Under kStep every context change wipes the cache, so end-of-step entry
  // counts stay at one step's working set; under kShared entries accumulate
  // across the whole run (and would be shared with sibling jobs).
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig step_cfg = config_;
  step_cfg.stop = {3, 0.95};
  step_cfg.cache_policy = cache::CachePolicy::kStep;
  PipelineConfig shared_cfg = step_cfg;
  shared_cfg.cache_policy = cache::CachePolicy::kShared;
  shared_cfg.shared_cache = std::make_shared<cache::SharedScenarioCache>();

  PredictionPipeline p_step(workload_.environment, truth_, step_cfg);
  PredictionPipeline p_shared(workload_.environment, truth_, shared_cfg);
  NsGaOptimizer o1(ns), o2(ns);
  Rng a(15), b(15);
  const auto r_step = p_step.run(o1, a);
  const auto r_shared = p_shared.run(o2, b);
  ASSERT_GE(r_shared.steps.size(), 2u);
  EXPECT_GT(r_shared.steps.back().cache_entries,
            r_step.steps.back().cache_entries)
      << "shared cache should retain earlier steps' entries";
  const cache::CacheStats stats = shared_cfg.shared_cache->stats();
  EXPECT_EQ(stats.entries, r_shared.steps.back().cache_entries);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);  // default budget far above this workload
}

TEST_F(PipelineTest, CacheCountersDeterministicAcrossWorkerCounts) {
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig serial_cfg = config_;
  serial_cfg.stop = {4, 0.95};
  serial_cfg.workers = 1;
  PipelineConfig parallel_cfg = serial_cfg;
  parallel_cfg.workers = 4;

  PredictionPipeline ps(workload_.environment, truth_, serial_cfg);
  PredictionPipeline pp(workload_.environment, truth_, parallel_cfg);
  NsGaOptimizer o1(ns), o2(ns);
  Rng a(14), b(14);
  const auto rs = ps.run(o1, a);
  const auto rp = pp.run(o2, b);
  ASSERT_EQ(rs.steps.size(), rp.steps.size());
  for (std::size_t i = 0; i < rs.steps.size(); ++i) {
    EXPECT_EQ(rs.steps[i].cache_hits, rp.steps[i].cache_hits) << i;
    EXPECT_EQ(rs.steps[i].cache_misses, rp.steps[i].cache_misses) << i;
  }
  EXPECT_EQ(rs.total_cache_hits(), rp.total_cache_hits());
  EXPECT_EQ(rs.total_cache_misses(), rp.total_cache_misses());
}

TEST_F(PipelineTest, HillsResultsIdenticalAcrossCachePoliciesAndWorkers) {
  // The SS reads the OS's burned sets under kStep, the shared map cache
  // under kShared and re-simulates under kOff: every policy and worker
  // count must give the same qualities, Kign values and probability grids,
  // with cache hits that do not depend on the worker count.
  const synth::Workload hills = synth::make_hills(32);
  Rng truth_rng(9);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      hills.environment, hills.truth_config, truth_rng);
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;

  std::optional<PipelineResult> baseline;
  std::optional<Grid<double>> baseline_probability;
  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
        cache::CachePolicy::kShared}) {
    std::vector<std::size_t> hits;
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(cache::to_string(policy)) + " workers " +
                   std::to_string(workers));
      PipelineConfig config = config_;
      config.stop = {4, 0.95};
      config.max_solution_maps = 6;
      config.cache_policy = policy;
      config.workers = workers;
      PredictionPipeline pipeline(hills.environment, truth, config);
      NsGaOptimizer optimizer(ns);
      Rng rng(21);
      const PipelineResult result = pipeline.run(optimizer, rng);
      hits.push_back(result.total_cache_hits());
      if (!baseline) {
        baseline = result;
        baseline_probability = pipeline.last_probability();
        continue;
      }
      ASSERT_EQ(result.steps.size(), baseline->steps.size());
      for (std::size_t i = 0; i < result.steps.size(); ++i) {
        EXPECT_EQ(result.steps[i].kign, baseline->steps[i].kign);
        EXPECT_EQ(result.steps[i].calibration_fitness,
                  baseline->steps[i].calibration_fitness);
        EXPECT_EQ(result.steps[i].prediction_quality,
                  baseline->steps[i].prediction_quality);
      }
      EXPECT_EQ(pipeline.last_probability(), *baseline_probability);
    }
    EXPECT_EQ(hits[0], hits[1]);
    if (policy != cache::CachePolicy::kOff) {
      EXPECT_GT(hits[0], 0u);
    }
  }
}

TEST_F(PipelineTest, StageTimingsCoverTheStep) {
  PredictionPipeline pipeline(workload_.environment, truth_, config_);
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  NsGaOptimizer optimizer(ns);
  Rng rng(12);
  const auto result = pipeline.run(optimizer, rng);
  for (const auto& step : result.steps) {
    EXPECT_GE(step.os_seconds, 0.0);
    EXPECT_GE(step.ss_seconds, 0.0);
    EXPECT_GE(step.cs_seconds, 0.0);
    EXPECT_GE(step.ps_seconds, 0.0);
    const double stages = step.os_seconds + step.ss_seconds + step.cs_seconds +
                          step.ps_seconds;
    EXPECT_LE(stages, step.elapsed_seconds + 1e-6);
  }
}

TEST_F(PipelineTest, SolutionMapCapRespected) {
  PipelineConfig cfg = config_;
  cfg.max_solution_maps = 5;
  cfg.stop = {4, 0.95};
  PredictionPipeline pipeline(workload_.environment, truth_, cfg);
  GaOptimizer optimizer;  // returns a 32-individual population
  Rng rng(5);
  const auto result = pipeline.run(optimizer, rng);
  for (const auto& step : result.steps) EXPECT_LE(step.solution_count, 5u);
}

TEST_F(PipelineTest, WorksWithEveryOptimizerFamily) {
  PipelineConfig cfg = config_;
  cfg.stop = {3, 0.95};

  std::vector<std::unique_ptr<Optimizer>> optimizers;
  ea::GaConfig ga;
  ga.population_size = 8;
  ga.offspring_count = 8;
  optimizers.push_back(std::make_unique<GaOptimizer>(ga));
  DeOptimizer::Options de;
  de.de.population_size = 8;
  optimizers.push_back(std::make_unique<DeOptimizer>(de));
  DeOptimizer::Options tuned = de;
  tuned.with_tuning = true;
  optimizers.push_back(std::make_unique<DeOptimizer>(tuned));
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  optimizers.push_back(std::make_unique<NsGaOptimizer>(ns));
  IslandOptimizer::Options island;
  island.islands = 2;
  island.migration_interval = 2;
  island.ga.population_size = 6;
  island.ga.offspring_count = 6;
  optimizers.push_back(std::make_unique<IslandOptimizer>(island));

  Rng rng(6);
  for (auto& optimizer : optimizers) {
    SCOPED_TRACE(optimizer->name());
    PredictionPipeline pipeline(workload_.environment, truth_, cfg);
    const auto result = pipeline.run(*optimizer, rng);
    EXPECT_EQ(result.steps.size(), 4u);
    for (const auto& step : result.steps) {
      EXPECT_GE(step.prediction_quality, 0.0);
      EXPECT_LE(step.prediction_quality, 1.0);
    }
  }
}

TEST_F(PipelineTest, RejectsTooFewSteps) {
  synth::GroundTruthConfig cfg = workload_.truth_config;
  cfg.steps = 1;
  Rng rng(8);
  const auto short_truth =
      synth::generate_ground_truth(workload_.environment, cfg, rng);
  EXPECT_THROW(
      PredictionPipeline(workload_.environment, short_truth, config_),
      InvalidArgument);
}

TEST_F(PipelineTest, LastPredictionAccessible) {
  PredictionPipeline pipeline(workload_.environment, truth_, config_);
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  NsGaOptimizer optimizer(ns);
  Rng rng(10);
  pipeline.run(optimizer, rng);
  EXPECT_EQ(pipeline.last_probability().rows(), 32);
  EXPECT_EQ(pipeline.last_prediction().rows(), 32);
  // The last prediction must contain at least the preburned area's growth.
  const std::size_t burned = pipeline.last_prediction().count_if(
      [](std::uint8_t v) { return v != 0; });
  EXPECT_GT(burned, 0u);
}

}  // namespace
}  // namespace essns::ess
