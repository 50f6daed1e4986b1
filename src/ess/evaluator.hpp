// ScenarioEvaluator: the bridge between the metaheuristics (which see
// normalized genomes and fitness values) and the fire simulator (which sees
// scenarios and ignition maps).
//
// The paper parallelizes only this component: "parallelism will only be
// implemented in the evaluation of the scenarios, i.e., in the simulation
// process and subsequent computation of the fitness function" (§III-B).
// This implementation supersedes that scoping: all simulation — OS fitness
// batches and the SS/PS mask batches alike — goes through one pool-backed
// SimulationService, so the Statistical and Prediction stages share the
// OS-Worker pool (the Fig. 1/3 OS-Master -> OS-Worker message flow) instead
// of re-simulating serially. With workers == 1 everything runs inline, and
// results are bit-identical across worker counts.
#pragma once

#include "ea/individual.hpp"
#include "ess/simulation_service.hpp"

namespace essns::ess {

/// One prediction-step evaluation interval: simulate from `start_map`
/// (fire state at t = start_time) until end_time, score against target_map.
struct StepContext {
  const firelib::IgnitionMap* start_map = nullptr;
  const firelib::IgnitionMap* target_map = nullptr;
  double start_time = 0.0;
  double end_time = 0.0;
};

class ScenarioEvaluator {
 public:
  /// workers == 1: serial evaluation. workers > 1: persistent Master/Worker.
  ScenarioEvaluator(const firelib::FireEnvironment& env, unsigned workers = 1);

  ScenarioEvaluator(const ScenarioEvaluator&) = delete;
  ScenarioEvaluator& operator=(const ScenarioEvaluator&) = delete;

  /// Select the interval evaluated by subsequent batch calls.
  void set_step(const StepContext& context);

  /// BatchEvaluator view bound to this evaluator (valid while alive).
  ea::BatchEvaluator batch_evaluator();

  /// Fitness of one scenario on the current step (calling thread).
  double evaluate_scenario(const firelib::Scenario& scenario);

  /// Simulated ignition map of `scenario` from `start` (state at
  /// `start_time`) to `end_time` — used by the SS/PS stages to rebuild the
  /// maps of the selected solution set.
  firelib::IgnitionMap simulate(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                double end_time);

  /// Batched counterpart of simulate(): one map per scenario, scattered
  /// over the shared worker pool, gathered in scenario order. Bit-identical
  /// to N simulate() calls at any worker count.
  std::vector<firelib::IgnitionMap> simulate_batch(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, double end_time);

  /// Probability-of-ignition matrix of `scenarios` from `start` to
  /// `end_time` — the SS/PS aggregation, bit-identical to
  /// aggregate_probability(simulate_batch(...), end_time). Under the step
  /// cache it reads the burned sets the OS fitness batches just swept over
  /// the same interval instead of re-simulating them (see
  /// SimulationService::burn_probability).
  Grid<double> burn_probability(const std::vector<firelib::Scenario>& scenarios,
                                const firelib::IgnitionMap& start,
                                double end_time) {
    return service_.burn_probability(scenarios, start, end_time);
  }

  /// How many of the best OS simulations per interval keep their burned
  /// set for burn_probability: the size of the solution set the SS reads.
  void set_solution_memo_capacity(std::size_t capacity) {
    service_.set_solution_memo_capacity(capacity);
  }

  unsigned workers() const { return service_.workers(); }
  std::size_t simulations_run() const { return service_.simulations_run(); }

  std::size_t batch_dedup_hits() const { return service_.batch_dedup_hits(); }

  /// Relax-kernel and NUMA-placement knobs (see SimulationService); both
  /// are performance-only — results are bit-identical at any setting.
  void set_simd_mode(simd::Mode mode) { service_.set_simd_mode(mode); }
  simd::Mode simd_mode() const { return service_.simd_mode(); }
  simd::Isa simd_isa() const { return service_.simd_isa(); }
  void set_numa_mode(parallel::NumaMode mode) { service_.set_numa_mode(mode); }
  parallel::NumaMode numa_mode() const { return service_.numa_mode(); }
  bool numa_active() const { return service_.numa_active(); }
  std::size_t workers_pinned() const { return service_.workers_pinned(); }

  /// Scenario-cache controls and counters (see SimulationService).
  void set_cache_policy(cache::CachePolicy policy) {
    service_.set_cache_policy(policy);
  }
  cache::CachePolicy cache_policy() const { return service_.cache_policy(); }
  void set_shared_cache(std::shared_ptr<cache::SharedScenarioCache> cache) {
    service_.set_shared_cache(std::move(cache));
  }
  void set_cache_mem_bytes(std::size_t bytes) {
    service_.set_cache_mem_bytes(bytes);
  }
  std::size_t cache_hits() const { return service_.cache_hits(); }
  std::size_t cache_misses() const { return service_.cache_misses(); }
  std::size_t cache_evictions() const { return service_.cache_evictions(); }
  std::size_t cache_insertions_rejected() const {
    return service_.cache_insertions_rejected();
  }
  std::size_t cache_entries() const { return service_.cache_entries(); }
  std::size_t cache_bytes() const { return service_.cache_bytes(); }

 private:
  std::vector<double> evaluate_batch(const std::vector<ea::Genome>& genomes);

  SimulationService service_;
  StepContext context_;
};

}  // namespace essns::ess
