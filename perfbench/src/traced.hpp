// The traced path: a job run through the program's public pipeline API with
// the optimizer wrapped in a timing decorator, a replay of the recorded
// Optimization-Stage batches through the propagator and the fitness kernel,
// and the per-layer budget built from both.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ea/individual.hpp"
#include "service/engine.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace perfbench {

/// One evaluator call inside the Optimization Stage.
struct OsBatch {
  int step = 0;  ///< calibration interval n: start map t_{n-1}, target t_n
  std::vector<essns::ea::Genome> genomes;
  std::vector<double> fitness;
};

/// A job run with timers around each module call. `record` holds the same
/// result fields service::run_prediction_job would.
struct TracedJob {
  essns::service::JobRecord record;
  const essns::synth::Workload* workload = nullptr;
  essns::synth::GroundTruth truth;  ///< kept for the sweep replay
  double job_s = 0.0;       ///< truth + pipeline, bench timer
  double truth_s = 0.0;     ///< synth::generate_truth
  double pipeline_s = 0.0;  ///< PredictionPipeline::run
  double optimize_s = 0.0;  ///< sum of the decorated optimize() calls
  double evaluate_s = 0.0;  ///< sum of the timed BatchEvaluator calls
  std::size_t evaluate_calls = 0;
  std::size_t evaluate_genomes = 0;
  std::vector<OsBatch> batches;
};

/// Run one prediction job the way run_prediction_job does (same seeds, same
/// pipeline configuration, one simulation worker), timing truth generation,
/// the pipeline and every evaluator call.
TracedJob run_traced_job(
    const essns::synth::Workload& workload, std::size_t index,
    std::uint64_t campaign_seed, const essns::service::JobSpec& spec,
    const std::shared_ptr<essns::cache::SharedScenarioCache>& shared_cache);

/// Sweep and fitness costs measured by re-running recorded OS batches
/// through FirePropagator::propagate (one PropagationWorkspace) and
/// ess::jaccard_at, with a metrics registry installed for the sweep
/// counters.
struct ReplayStats {
  std::size_t batches = 0;
  std::size_t sweeps = 0;
  double sweep_s = 0.0;  ///< total sweep time
  double sweep_p50_s = 0.0;
  double sweep_p90_s = 0.0;
  std::uint64_t cells_popped = 0;
  std::uint64_t tt_rebuilds = 0;
  double fitness_s = 0.0;
  double fitness_p50_s = 0.0;
  double straggler_ratio = 0.0;  ///< median over batches of max/mean sweep
  std::size_t mismatches = 0;    ///< replayed fitness != recorded fitness
};

/// Replay an evenly strided subset of all recorded batches holding at most
/// about `max_sweeps` genomes.
ReplayStats replay_os_batches(const std::vector<TracedJob>& jobs,
                              std::size_t max_sweeps);

/// Fill the pipeline/evaluator/optimizer/synth/sweep layers, the budget
/// reconciliation and the ranked self-time table from traced jobs and their
/// replay. `untraced_job_s` is the summed job time of the same work run
/// untraced (the base of trace.overhead_ratio).
void add_traced_layers(const std::vector<TracedJob>& jobs,
                       const ReplayStats& replay, double untraced_job_s,
                       std::map<std::string, double>& layers,
                       RunResult& result);

/// Tolerance on budget.unaccounted_ratio: the share of traced job time no
/// timed layer covers.
inline constexpr double kBudgetTolerance = 0.05;

}  // namespace perfbench
