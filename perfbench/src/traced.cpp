#include "traced.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "ess/config.hpp"
#include "ess/fitness.hpp"
#include "ess/optimizer.hpp"
#include "ess/pipeline.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

using namespace essns;

/// Wraps ess::make_optimizer's optimizer: times each optimize() call and
/// each BatchEvaluator call inside it, and records the evaluated batches.
class TimedOptimizer final : public ess::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<ess::Optimizer> inner, TracedJob& job)
      : inner_(std::move(inner)), job_(&job) {}

  std::string name() const override { return inner_->name(); }

  ess::OptimizationOutcome optimize(std::size_t dim,
                                    const ea::BatchEvaluator& evaluate,
                                    const ea::StopCondition& stop,
                                    Rng& rng) override {
    // The pipeline calls optimize() once per step, calibrating on
    // [t_{n-1}, t_n] for n = 1, 2, ...
    const int step = ++calls_;
    TracedJob& job = *job_;
    const ea::BatchEvaluator timed =
        [&job, &evaluate, step](const std::vector<ea::Genome>& genomes) {
          const double start = now_s();
          std::vector<double> fitness = evaluate(genomes);
          job.evaluate_s += now_s() - start;
          ++job.evaluate_calls;
          job.evaluate_genomes += genomes.size();
          job.batches.push_back({step, genomes, fitness});
          return fitness;
        };
    const double start = now_s();
    ess::OptimizationOutcome outcome = inner_->optimize(dim, timed, stop, rng);
    job.optimize_s += now_s() - start;
    return outcome;
  }

 private:
  std::unique_ptr<ess::Optimizer> inner_;
  TracedJob* job_;
  int calls_ = 0;
};

ess::RunSpec to_run_spec(const service::JobSpec& spec) {
  ess::RunSpec run;
  run.method = spec.method;
  run.generations = spec.generations;
  run.fitness_threshold = spec.fitness_threshold;
  run.population = spec.population;
  run.offspring = spec.offspring;
  run.novelty_k = spec.novelty_k;
  run.islands = spec.islands;
  return run;
}

std::string seconds_text(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4f s", seconds);
  return buffer;
}

std::string share_text(double part, double base) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%5.1f%%",
                base > 0.0 ? 100.0 * part / base : 0.0);
  return buffer;
}

}  // namespace

TracedJob run_traced_job(
    const synth::Workload& workload, std::size_t index,
    std::uint64_t campaign_seed, const service::JobSpec& spec,
    const std::shared_ptr<cache::SharedScenarioCache>& shared_cache) {
  TracedJob job;
  job.workload = &workload;
  service::JobRecord& record = job.record;
  record.index = index;
  record.workload = workload.name;
  record.rows = workload.environment.rows();
  record.cols = workload.environment.cols();
  record.seed = service::campaign_job_seed(campaign_seed, workload.seed, index);
  record.workers = 1;

  const double start = now_s();
  try {
    TimedOptimizer optimizer(ess::make_optimizer(to_run_spec(spec)), job);
    const double truth_start = now_s();
    Rng truth_rng(record.seed);
    job.truth = synth::generate_truth(workload, truth_rng);
    const double truth_end = now_s();
    job.truth_s = truth_end - truth_start;

    ess::PipelineConfig config;
    config.stop = {spec.generations, spec.fitness_threshold};
    config.workers = 1;
    config.max_solution_maps = spec.max_solution_maps;
    config.cache_policy = spec.cache_policy;
    config.cache_mem_bytes =
        shared_cache ? shared_cache->max_bytes() : cache::kDefaultCacheBytes;
    config.shared_cache = spec.cache_policy == cache::CachePolicy::kShared
                              ? shared_cache
                              : nullptr;
    ess::PredictionPipeline pipeline(workload.environment, job.truth, config);
    Rng rng(record.seed ^ 0x5eedULL);
    record.result = pipeline.run(optimizer, rng);
    job.pipeline_s = now_s() - truth_end;
    record.status = service::JobStatus::kSucceeded;
  } catch (const std::exception& e) {
    record.status = service::JobStatus::kFailed;
    record.error = e.what();
  }
  job.job_s = now_s() - start;
  record.elapsed_seconds = job.job_s;
  return job;
}

ReplayStats replay_os_batches(const std::vector<TracedJob>& jobs,
                              std::size_t max_sweeps) {
  std::size_t genomes = 0;
  for (const TracedJob& job : jobs)
    for (const OsBatch& batch : job.batches) genomes += batch.genomes.size();
  const std::size_t stride =
      std::max<std::size_t>(1, (genomes + max_sweeps - 1) / max_sweeps);

  const firelib::FireSpreadModel model;
  const firelib::FirePropagator propagator(model);
  firelib::PropagationWorkspace workspace;
  const firelib::ScenarioSpace& space = firelib::ScenarioSpace::table1();

  obs::MetricsRegistry registry;
  obs::install_metrics_registry(&registry);
  ReplayStats stats;
  std::vector<double> sweep_times;
  std::vector<double> fitness_times;
  std::vector<double> stragglers;
  std::size_t seen = 0;
  for (const TracedJob& job : jobs) {
    if (job.record.status != service::JobStatus::kSucceeded) continue;
    const firelib::FireEnvironment& env = job.workload->environment;
    for (const OsBatch& batch : job.batches) {
      if (seen++ % stride != 0) continue;
      const auto n = static_cast<std::size_t>(batch.step);
      const firelib::IgnitionMap& start_map = job.truth.fire_lines[n - 1];
      const firelib::IgnitionMap& target = job.truth.fire_lines[n];
      const double t_prev = job.truth.time_of(batch.step - 1);
      const double t_now = job.truth.time_of(batch.step);
      double batch_max = 0.0;
      double batch_sum = 0.0;
      for (std::size_t i = 0; i < batch.genomes.size(); ++i) {
        const firelib::Scenario scenario = space.decode(batch.genomes[i]);
        const double t0 = now_s();
        const firelib::IgnitionMap& map =
            propagator.propagate(env, scenario, start_map, t_now, workspace);
        const double t1 = now_s();
        const double fitness = ess::jaccard_at(target, map, t_now, t_prev);
        const double t2 = now_s();
        if (std::bit_cast<std::uint64_t>(fitness) !=
            std::bit_cast<std::uint64_t>(batch.fitness[i]))
          ++stats.mismatches;
        sweep_times.push_back(t1 - t0);
        fitness_times.push_back(t2 - t1);
        batch_max = std::max(batch_max, t1 - t0);
        batch_sum += t1 - t0;
      }
      if (!batch.genomes.empty() && batch_sum > 0.0)
        stragglers.push_back(batch_max * static_cast<double>(
                                             batch.genomes.size()) /
                             batch_sum);
      ++stats.batches;
    }
  }
  obs::install_metrics_registry(nullptr);

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto counter = [&snapshot](const char* name) -> std::uint64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  stats.sweeps = sweep_times.size();
  stats.sweep_s = sum(sweep_times);
  stats.sweep_p50_s = quantile(sweep_times, 0.50);
  stats.sweep_p90_s = quantile(sweep_times, 0.90);
  stats.cells_popped = counter("sweep.cells_popped");
  stats.tt_rebuilds = counter("sweep.tt_table_rebuilds");
  stats.fitness_s = sum(fitness_times);
  stats.fitness_p50_s = quantile(fitness_times, 0.50);
  stats.straggler_ratio = median(stragglers);
  return stats;
}

void add_traced_layers(const std::vector<TracedJob>& jobs,
                       const ReplayStats& replay, double untraced_job_s,
                       std::map<std::string, double>& layers,
                       RunResult& result) {
  double job = 0.0, truth = 0.0, pipeline = 0.0, optimize = 0.0,
         evaluate = 0.0, step = 0.0, os = 0.0, ss = 0.0, cs = 0.0, ps = 0.0;
  double generations = 0.0, evaluations = 0.0, calls = 0.0, genomes = 0.0;
  for (const TracedJob& traced : jobs) {
    job += traced.job_s;
    truth += traced.truth_s;
    pipeline += traced.pipeline_s;
    optimize += traced.optimize_s;
    evaluate += traced.evaluate_s;
    calls += static_cast<double>(traced.evaluate_calls);
    genomes += static_cast<double>(traced.evaluate_genomes);
    for (const ess::StepReport& report : traced.record.result.steps) {
      step += report.elapsed_seconds;
      os += report.os_seconds;
      ss += report.ss_seconds;
      cs += report.cs_seconds;
      ps += report.ps_seconds;
      generations += report.os_generations;
      evaluations += static_cast<double>(report.os_evaluations);
    }
  }
  const double count = static_cast<double>(std::max<std::size_t>(1, jobs.size()));
  layers["synth.truth_s"] = truth / count;
  layers["pipeline.os_s"] = os;
  layers["pipeline.ss_s"] = ss;
  layers["pipeline.cs_s"] = cs;
  layers["pipeline.ps_s"] = ps;
  layers["pipeline.os_share"] = step > 0.0 ? os / step : 0.0;
  layers["pipeline.ss_share"] = step > 0.0 ? ss / step : 0.0;
  layers["pipeline.cs_share"] = step > 0.0 ? cs / step : 0.0;
  layers["pipeline.ps_share"] = step > 0.0 ? ps / step : 0.0;
  layers["evaluate.s"] = evaluate;
  layers["evaluate.calls"] = calls;
  layers["evaluate.genomes"] = genomes;
  layers["optimizer.self_s"] = optimize - evaluate;
  layers["optimizer.generations"] = generations;
  layers["optimizer.evaluations"] = evaluations;
  layers["sweep.s_p50"] = replay.sweep_p50_s;
  layers["sweep.s_p90"] = replay.sweep_p90_s;
  layers["sweep.count"] = static_cast<double>(replay.sweeps);
  layers["sweep.ns_per_pop"] =
      replay.cells_popped > 0
          ? 1e9 * replay.sweep_s / static_cast<double>(replay.cells_popped)
          : 0.0;
  layers["sweep.tt_rebuilds_per_sweep"] =
      replay.sweeps > 0 ? static_cast<double>(replay.tt_rebuilds) /
                              static_cast<double>(replay.sweeps)
                        : 0.0;
  layers["fitness.s_p50"] = replay.fitness_p50_s;
  layers["batch.straggler_ratio"] = replay.straggler_ratio;
  layers["trace.overhead_ratio"] =
      untraced_job_s > 0.0 ? job / untraced_job_s : 0.0;

  // Reconciliation: every level of the tree must be covered by its
  // children. The decorator's optimize() time is split exactly into
  // evaluator and optimizer self time, so the residuals below are the only
  // time no layer accounts for.
  const double job_glue = job - truth - pipeline;
  const double pipeline_glue = pipeline - step;
  const double step_glue = step - (os + ss + cs + ps);
  const double os_glue = os - optimize;
  const double unaccounted = std::abs(job_glue) + std::abs(pipeline_glue) +
                             std::abs(step_glue) + std::abs(os_glue);
  const double unaccounted_ratio = job > 0.0 ? unaccounted / job : 0.0;
  layers["budget.unaccounted_ratio"] = unaccounted_ratio;
  if (replay.mismatches > 0)
    result.fail("sweep replay: " + std::to_string(replay.mismatches) +
                " replayed fitness values differ from the evaluator's");
  if (unaccounted_ratio > kBudgetTolerance)
    result.fail("layer budget: unaccounted " +
                std::to_string(unaccounted_ratio) + " of job time exceeds " +
                std::to_string(kBudgetTolerance));

  struct Row {
    std::string layer;
    double seconds;
  };
  std::vector<Row> rows = {
      {"ess evaluator (OS batches: cache + sweep + fitness)", evaluate},
      {"ess statistical stage (SS re-simulation + aggregation)", ss},
      {"ess prediction stage (PS simulation + threshold)", ps},
      {"ess calibration stage (CS Kign search)", cs},
      {"core+ea optimizer self (OS minus evaluator)", optimize - evaluate},
      {"synth ground truth", truth},
      {"pipeline glue: OS outside optimize()", os_glue},
      {"pipeline glue: step outside stages (scoring)", step_glue},
      {"pipeline glue: set-up outside steps", pipeline_glue},
      {"job glue: outside truth + pipeline", job_glue},
  };
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seconds > b.seconds; });
  auto& lines = result.budget_lines;
  lines.push_back("layers ranked by self time; base = traced job time " +
                  seconds_text(job) + " over " +
                  std::to_string(jobs.size()) + " jobs");
  for (const Row& row : rows)
    lines.push_back("  " + share_text(row.seconds, job) + "  " +
                    seconds_text(row.seconds) + "  " + row.layer);
  lines.push_back("  unaccounted " + share_text(unaccounted, job) +
                  " of job time (tolerance " +
                  share_text(kBudgetTolerance, 1.0) + ")");
  lines.push_back(
      "sweep replay: " + std::to_string(replay.sweeps) + " sweeps in " +
      std::to_string(replay.batches) + " OS batches; sweep " +
      seconds_text(replay.sweep_s) + " = " +
      share_text(replay.sweep_s, replay.sweep_s + replay.fitness_s) +
      " and fitness " + seconds_text(replay.fitness_s) + " = " +
      share_text(replay.fitness_s, replay.sweep_s + replay.fitness_s) +
      " of replayed time " + seconds_text(replay.sweep_s + replay.fitness_s));
  lines.push_back("tracing overhead: traced job time " + seconds_text(job) +
                  " over untraced job time " + seconds_text(untraced_job_s));
}

}  // namespace perfbench
