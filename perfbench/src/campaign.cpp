// campaign_uniform / campaign_dem: CampaignScheduler batches of 72 jobs,
// each batch submitted at once to 4 job slots x 1 simulation worker under
// the default step cache, until the run's time is up. Batches cycle over
// three catalogs, so one run averages over 216 fires while the oracle stays
// three batches long. The fires are a fixed pool; the run seed orders each
// catalog's jobs, which also sets every job's seed through its index.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/campaign.hpp"
#include "synth/catalog.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

using namespace essns;

constexpr unsigned kJobSlots = 4;
constexpr int kSetupRepeats = 21;
constexpr std::size_t kCatalogs = 3;
constexpr std::size_t kReplaySweeps = 6000;
/// Replicate seeds of the catalogs and the campaign seed are fixed, not
/// drawn from the run seed: a DEM fire's cost varies several-fold with its
/// terrain and hidden scenario, and fresh fires per run seed moved
/// jobs_per_s by about a tenth between seeds.
constexpr std::uint64_t kFirePool = 0xca4a1095;

struct CampaignShape {
  const char* terrains;
  const char* sizes;
  /// Latency limit L of slo_ratio: a job counts as met when it succeeded
  /// within L of starting in its slot.
  double slo_limit_s;
};

CampaignShape shape_of(const std::string& workload) {
  if (workload == "campaign_dem") return {"hills,rugged", "64", 1.0};
  return {"plains", "64,96", 0.5};
}

/// The catalog spec the program receives: fixed shape, replicate seeds
/// from the pool and the catalog number (3 replicates x 24 cells = 72
/// jobs).
std::string catalog_text(const CampaignShape& shape, std::size_t catalog) {
  return std::string("terrains=") + shape.terrains + "\nsizes=" + shape.sizes +
         "\nweather=steady,wind_shift,diurnal"
         "\nignitions=center,offset,edge,corner\nseeds=3\nbase_seed=" +
         std::to_string(mix_seed(kFirePool, 100 + catalog) >> 1) + "\n";
}

/// The catalog's jobs in the order the run seed deals them.
std::vector<synth::Workload> make_catalog(const CampaignShape& shape,
                                          std::uint64_t seed,
                                          std::size_t catalog) {
  std::vector<synth::Workload> workloads = synth::generate_catalog(
      synth::parse_catalog_spec(catalog_text(shape, catalog)));
  Stream{mix_seed(seed, 100 + catalog)}.shuffle(workloads);
  return workloads;
}

struct Batch {
  std::size_t catalog = 0;
  double wall_s = 0.0;
  std::vector<service::JobRecord> records;
  std::vector<double> done_s;  ///< per job: submission -> record
};

void run_batch(Batch& batch, const std::vector<synth::Workload>& workloads,
               service::CampaignConfig config) {
  batch.done_s.assign(workloads.size(), 0.0);
  double start = 0.0;
  config.on_job_done = [&batch, &start](const service::JobRecord& record) {
    batch.done_s[record.index] = now_s() - start;
  };
  const service::CampaignScheduler scheduler(config);
  start = now_s();
  service::CampaignResult result = scheduler.run(workloads);
  batch.wall_s = now_s() - start;
  batch.records = std::move(result.jobs);
}

}  // namespace

RunResult run_campaign(const Options& options) {
  RunResult result;
  const CampaignShape shape = shape_of(options.workload);

  service::CampaignConfig config;
  config.job_concurrency = kJobSlots;
  config.total_workers = kJobSlots;
  config.seed = mix_seed(kFirePool, 2);

  // Set-up: the run's catalogs and the scheduler, built several times, each
  // time on the next CPU the process may use; the median is setup_s. A plains
  // set-up takes tens of microseconds, and runs kept on one CPU of the
  // shared host read either ~30 or ~50 us depending on the CPU.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  std::vector<std::vector<synth::Workload>> catalogs(kCatalogs);
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    for (auto& catalog : catalogs) catalog.clear();
    const double start = now_s();
    for (std::size_t c = 0; c < kCatalogs; ++c)
      catalogs[c] = make_catalog(shape, options.seed, c);
    generate_times.push_back(now_s() - start);
    const service::CampaignScheduler scheduler(config);
    setup_times.push_back(now_s() - start);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  const std::size_t jobs = catalogs[0].size();

  // Timed region: whole batches until the run's time is up. A traced run
  // spends half of it untraced (the engine and step figures, and the base
  // of trace.overhead_ratio) and then runs batch 0 again, traced.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Batch> batches;
  double timed = 0.0;
  while (timed < budget) {
    Batch& batch = batches.emplace_back();
    batch.catalog = (batches.size() - 1) % kCatalogs;
    run_batch(batch, catalogs[batch.catalog], config);
    timed += batch.wall_s;
  }
  const double rss = peak_rss_mib("self");

  // Oracle: every job again, cache off, one worker, outside the timed region.
  service::JobSpec oracle_spec = service::CampaignScheduler(config).job_spec();
  oracle_spec.cache_policy = cache::CachePolicy::kOff;
  const std::size_t used = std::min(kCatalogs, batches.size());
  std::vector<std::vector<service::JobRecord>> oracle(used);
  for (std::size_t c = 0; c < used; ++c) {
    oracle[c].resize(jobs);
    parallel_for(jobs, kJobSlots, [&](std::size_t i) {
      oracle[c][i] = service::run_prediction_job(
          catalogs[c][i], i, config.seed, 1, oracle_spec,
          simd::Mode::kAuto, parallel::NumaMode::kAuto,
          firelib::SweepBackend::kScalar, nullptr);
    });
  }

  std::vector<double> latencies;
  std::vector<double> steps;
  std::size_t met = 0;
  std::size_t succeeded = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t i = 0; i < jobs; ++i) {
      const service::JobRecord& record = batches[b].records[i];
      ++result.attempted;
      const bool ok = record.status == service::JobStatus::kSucceeded;
      if (!ok) {
        ++result.failed;
        result.note("job " + std::to_string(i) + " (" + record.workload +
                    ") failed: " + record.error);
        continue;
      }
      if (!same_results(record, oracle[batches[b].catalog][i])) {
        ++result.failed;
        result.fail("batch " + std::to_string(b) + " job " +
                    std::to_string(i) + " (" + record.workload +
                    ") diverged from the oracle");
        continue;
      }
      ++succeeded;
      latencies.push_back(record.elapsed_seconds);
      if (record.elapsed_seconds <= shape.slo_limit_s) ++met;
      for (const ess::StepReport& step : record.result.steps)
        steps.push_back(step.elapsed_seconds);
    }
  }

  const double attempted =
      static_cast<double>(std::max<std::size_t>(1, result.attempted));
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = median(setup_times);
  e2e["peak_rss_mb"] = rss;
  e2e["jobs_per_s"] = static_cast<double>(succeeded) / timed;
  e2e["slo_ratio"] = static_cast<double>(met) / attempted;
  e2e["req_mean_s"] = mean(latencies);
  result.report = {
      {"failed_ratio", static_cast<double>(result.failed) / attempted, "ratio"},
      {"req_p50_s", quantile(latencies, 0.50), "s"},
      {"req_p90_s", quantile(latencies, 0.90), "s"},
      {"step_p50_s", quantile(steps, 0.50), "s"},
      {"step_p95_s", quantile(steps, 0.95), "s"},
      {"steps", static_cast<double>(steps.size()), "count"},
      {"batches", static_cast<double>(batches.size()), "count"},
      {"jobs_per_batch", static_cast<double>(jobs), "count"},
      {"job_max_s", quantile(latencies, 1.0), "s"},
      {"slo_limit_s", shape.slo_limit_s, "s"},
  };
  if (!options.trace) return result;

  // ---- Traced run: per-layer figures. ----
  auto& layers = result.per_layer;
  layers["synth.workload_s"] =
      median(generate_times) / static_cast<double>(jobs * kCatalogs);
  std::vector<double> waits;
  std::vector<double> runs;
  for (const Batch& batch : batches) {
    for (std::size_t i = 0; i < jobs; ++i) {
      const double run = batch.records[i].elapsed_seconds;
      runs.push_back(run);
      waits.push_back(std::max(0.0, batch.done_s[i] - run));
    }
  }
  layers["engine.queue_wait_s_p50"] = quantile(waits, 0.50);
  layers["engine.queue_wait_s_p90"] = quantile(waits, 0.90);
  layers["engine.run_s_p50"] = quantile(runs, 0.50);
  layers["req.p50_s"] = quantile(latencies, 0.50);
  layers["req.p90_s"] = quantile(latencies, 0.90);
  layers["step.p50_s"] = quantile(steps, 0.50);
  layers["step.p95_s"] = quantile(steps, 0.95);

  // Step-cache traffic and job time of batch 0, the batch traced below.
  double hits = 0.0, misses = 0.0, peak_bytes = 0.0, untraced_job_s = 0.0;
  for (const service::JobRecord& record : batches[0].records) {
    hits += static_cast<double>(record.result.total_cache_hits());
    misses += static_cast<double>(record.result.total_cache_misses());
    peak_bytes = std::max(peak_bytes,
                          static_cast<double>(record.result.max_cache_bytes()));
    untraced_job_s += record.elapsed_seconds;
  }
  layers["cache.hits"] = hits;
  layers["cache.misses"] = misses;
  layers["cache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers["cache.peak_bytes"] = peak_bytes;

  // Batch 0 again through the decorated pipeline, same slots, same order.
  std::vector<TracedJob> traced(jobs);
  const service::JobSpec spec = service::CampaignScheduler(config).job_spec();
  parallel_for(jobs, kJobSlots, [&](std::size_t i) {
    traced[i] = run_traced_job(catalogs[0][i], i, config.seed, spec,
                               nullptr);
  });
  for (std::size_t i = 0; i < jobs; ++i)
    if (!same_results(traced[i].record, oracle[0][i]))
      result.fail("traced job " + std::to_string(i) +
                  " differs from the untraced result");
  const ReplayStats replay = replay_os_batches(traced, kReplaySweeps);
  add_traced_layers(traced, replay, untraced_job_s, layers, result);
  return result;
}

}  // namespace perfbench
