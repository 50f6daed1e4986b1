// EXP-B6 — sharded campaign throughput and merge fidelity: the same
// fixed-seed catalog campaign run single-process and with --shards 1/2/4
// worker processes (each arm at job-concurrency 1 and 4 per worker),
// reporting wall-clock, jobs/sec and the speedup over the 1-shard arm —
// plus the contract that makes the numbers trustworthy: the launcher's
// merged canonical reports (JSONL + summary with timings zeroed) must be
// byte-identical to the in-process run at the same seeds, for every arm.
// A final arm kills shard 0 after one streamed job (the wire format's
// crash-containment path) and requires the campaign to still complete with
// the dead shard's unreported jobs recorded as failures.
// Any merge divergence or a failed crash arm is a nonzero exit, so CI
// tracks bit-for-bit merge fidelity the same way it tracks throughput.
// Writes BENCH_shard.json with hardware provenance.
//
// Plain main on purpose (always builds, no Google Benchmark) — and the
// binary doubles as the --shard-worker host that run_sharded_campaign()
// re-invokes via /proc/self/exe, so worker dispatch runs before anything
// else in main().
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "shard/runner.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

// Canonical report bytes: a pure function of the seeds, so equality means
// the merge reproduced the single-process campaign bit for bit.
std::string canonical_bytes(const service::CampaignResult& result) {
  const service::ReportOptions zero{/*zero_timings=*/true};
  std::ostringstream out;
  service::write_campaign_jsonl(result, out, zero);
  out << service::campaign_summary_json(result, zero) << "\n";
  return out.str();
}

service::CampaignConfig arm_config(unsigned job_concurrency, int generations,
                                   std::size_t population) {
  service::CampaignConfig config;
  config.job_concurrency = job_concurrency;
  config.total_workers = 4;
  config.spec.generations = generations;
  config.spec.population = population;
  config.spec.offspring = population;
  config.spec.fitness_threshold = 1.1;  // fixed budget, no early exit
  config.seed = 2022;
  return config;
}

struct ShardArm {
  unsigned shards = 1;
  unsigned job_concurrency = 1;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double min_utilization = 0.0;
  bool merge_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return shard::shard_worker_main();

  // --quick: smaller maps and budgets for CI smoke tracking.
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int generations = quick ? 3 : 6;
  const std::size_t population = quick ? 10 : 16;
  const std::string catalog_text =
      std::string("terrains=plains,hills\n") +
      "sizes=" + (quick ? "16" : "32") + "\n" +
      "weather=steady\n"
      "ignitions=center,offset\n"
      "seeds=2\n" +
      "steps=" + (quick ? "2" : "3") + "\n";
  const auto workloads =
      synth::generate_catalog(synth::parse_catalog_spec(catalog_text));

  std::printf("sharded campaign: %zu workloads (%s), %d generations\n",
              workloads.size(), quick ? "quick" : "full", generations);

  const unsigned shard_counts[] = {1, 2, 4};
  const unsigned concurrency_levels[] = {1, 4};
  std::vector<ShardArm> arms;
  bool all_identical = true;

  std::printf("%8s %8s %12s %12s %10s %8s %s\n", "shards", "jobs/wkr",
              "wall[s]", "jobs/sec", "speedup", "util%", "merge");
  for (const unsigned jobs : concurrency_levels) {
    const service::CampaignConfig config =
        arm_config(jobs, generations, population);
    // In-process reference at this concurrency: the JSONL "workers" field
    // depends on the split, so each concurrency level has its own baseline.
    const std::string baseline =
        canonical_bytes(service::CampaignScheduler(config).run(workloads));
    double serial_jps = 0.0;
    for (const unsigned shards : shard_counts) {
      shard::ShardedCampaignOptions options;
      options.shards = shards;
      options.config = config;
      options.catalog_text = catalog_text;
      const shard::ShardedCampaignResult sharded =
          shard::run_sharded_campaign(options);

      ShardArm arm;
      arm.shards = shards;
      arm.job_concurrency = jobs;
      arm.wall_seconds = sharded.campaign.wall_seconds;
      arm.jobs_per_second = sharded.campaign.jobs_per_second();
      arm.min_utilization = 1.0;
      for (const shard::ShardReport& report : sharded.shards)
        if (report.jobs_assigned > 0)
          arm.min_utilization =
              std::min(arm.min_utilization, report.utilization());
      arm.merge_identical = sharded.all_shards_clean() &&
                            canonical_bytes(sharded.campaign) == baseline;
      if (shards == 1) serial_jps = arm.jobs_per_second;
      all_identical = all_identical && arm.merge_identical;

      std::printf("%8u %8u %12.3f %12.3f %9.2fx %7.1f %s\n", shards, jobs,
                  arm.wall_seconds, arm.jobs_per_second,
                  serial_jps > 0.0 ? arm.jobs_per_second / serial_jps : 0.0,
                  100.0 * arm.min_utilization,
                  arm.merge_identical ? "identical" : "DIVERGED");
      arms.push_back(arm);
    }
  }

  // Crash-containment arm: kill shard 0 after one streamed job. The
  // campaign must still complete — every job present, the dead shard's
  // unreported jobs synthesized as failures — and the launcher must report
  // the shard as unclean.
  shard::ShardedCampaignOptions crash;
  crash.shards = 2;
  crash.config = arm_config(concurrency_levels[0], generations, population);
  crash.catalog_text = catalog_text;
  crash.debug_crash_shard = 0;
  crash.debug_crash_after_jobs = 1;
  const shard::ShardedCampaignResult crashed =
      shard::run_sharded_campaign(crash);
  const bool killed_shard_contained =
      !crashed.all_shards_clean() &&
      crashed.campaign.jobs.size() == workloads.size() &&
      crashed.campaign.failed() > 0 &&
      crashed.campaign.failed() ==
          crashed.shards[0].jobs_assigned - crashed.shards[0].jobs_received;
  std::printf("  killed-shard arm: %zu/%zu jobs failed, campaign %s\n",
              crashed.campaign.failed(), crashed.campaign.jobs.size(),
              killed_shard_contained ? "contained" : "NOT CONTAINED");

  const char* json_path = "BENCH_shard.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"sharded_campaign\",\n");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  \"workloads\": %zu,\n  \"generations\": %d,\n",
               workloads.size(), generations);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ShardArm& arm = arms[i];
    double serial_jps = 0.0;
    for (const ShardArm& other : arms)
      if (other.job_concurrency == arm.job_concurrency && other.shards == 1)
        serial_jps = other.jobs_per_second;
    std::fprintf(out,
                 "    {\"shards\": %u, \"job_concurrency\": %u, "
                 "\"wall_seconds\": %.6f, \"jobs_per_second\": %.4f, "
                 "\"speedup_vs_1_shard\": %.4f, \"min_utilization\": %.4f, "
                 "\"merge_identical\": %s}%s\n",
                 arm.shards, arm.job_concurrency, arm.wall_seconds,
                 arm.jobs_per_second,
                 serial_jps > 0.0 ? arm.jobs_per_second / serial_jps : 0.0,
                 arm.min_utilization, arm.merge_identical ? "true" : "false",
                 i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"killed_shard_contained\": %s,\n"
               "  \"merge_identical_all_arms\": %s\n}\n",
               killed_shard_contained ? "true" : "false",
               all_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s (merge_identical=%s)\n", json_path,
              all_identical ? "true" : "false");
  return all_identical && killed_shard_contained ? 0 : 1;
}
