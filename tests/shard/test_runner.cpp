// End-to-end sharded-campaign tests. The test binary itself hosts the
// --shard-worker mode (see test_main.cpp), so run_sharded_campaign()'s
// /proc/self/exe re-invocation spawns copies of this binary as workers.
#include "shard/runner.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "service/report.hpp"
#include "synth/catalog.hpp"

namespace essns::shard {
namespace {

// Small but not trivial: 2 terrains x 2 ignitions x 2 seed replicates = 8
// jobs of 16x16 maps, 2 predicted steps each.
const char* kCatalog =
    "terrains=plains,hills\n"
    "sizes=16\n"
    "weather=steady\n"
    "ignitions=center,offset\n"
    "seeds=2\n"
    "steps=2\n";

service::CampaignConfig small_config() {
  service::CampaignConfig config;
  config.job_concurrency = 2;
  config.total_workers = 2;
  config.spec.generations = 2;
  config.spec.population = 8;
  config.spec.offspring = 8;
  config.seed = 77;
  return config;
}

struct CanonicalReports {
  std::string jsonl;
  std::string csv;
  std::string summary;
};

CanonicalReports canonical(const service::CampaignResult& result) {
  const service::ReportOptions zero{/*zero_timings=*/true};
  CanonicalReports reports;
  std::ostringstream jsonl, csv;
  service::write_campaign_jsonl(result, jsonl, zero);
  service::write_campaign_csv(result, csv, zero);
  reports.jsonl = jsonl.str();
  reports.csv = csv.str();
  reports.summary = service::campaign_summary_json(result, zero);
  return reports;
}

service::CampaignResult run_in_process(const service::CampaignConfig& config) {
  const auto workloads =
      synth::generate_catalog(synth::parse_catalog_spec(kCatalog));
  return service::CampaignScheduler(config).run(workloads);
}

TEST(ShardSlice, RoundRobinPartitionIsDisjointAndCovering) {
  const std::size_t total = 11;
  for (std::size_t shards = 1; shards <= 5; ++shards) {
    std::set<std::size_t> seen;
    for (std::size_t k = 0; k < shards; ++k) {
      const auto slice = synth::shard_slice_indices(total, k, shards);
      for (const std::size_t index : slice) {
        EXPECT_EQ(index % shards, k);  // round-robin, not contiguous blocks
        EXPECT_TRUE(seen.insert(index).second) << "index owned twice";
      }
    }
    EXPECT_EQ(seen.size(), total);
  }
  // More shards than workloads: the tail shards own empty slices.
  EXPECT_TRUE(synth::shard_slice_indices(2, 3, 4).empty());
}

TEST(ShardSlice, RejectsIndexOutOfRange) {
  EXPECT_THROW(synth::shard_slice_indices(4, 2, 2), InvalidArgument);
  EXPECT_THROW(synth::shard_slice_indices(4, 0, 0), InvalidArgument);
}

TEST(ShardedCampaign, MergedReportsByteIdenticalToSingleProcess) {
  const service::CampaignConfig config = small_config();
  const CanonicalReports baseline = canonical(run_in_process(config));

  for (const unsigned shards : {1u, 2u, 3u}) {
    ShardedCampaignOptions options;
    options.shards = shards;
    options.config = config;
    options.catalog_text = kCatalog;
    const ShardedCampaignResult sharded = run_sharded_campaign(options);

    EXPECT_TRUE(sharded.all_shards_clean());
    ASSERT_EQ(sharded.shards.size(), shards);
    for (const ShardReport& report : sharded.shards) {
      EXPECT_TRUE(report.clean) << report.error;
      EXPECT_EQ(report.jobs_received, report.jobs_assigned);
      EXPECT_TRUE(report.summary_received);
      EXPECT_GT(report.wall_seconds, 0.0);
    }

    const CanonicalReports merged = canonical(sharded.campaign);
    EXPECT_EQ(merged.jsonl, baseline.jsonl) << "shards=" << shards;
    EXPECT_EQ(merged.csv, baseline.csv) << "shards=" << shards;
    EXPECT_EQ(merged.summary, baseline.summary) << "shards=" << shards;
  }
}

TEST(ShardedCampaign, ByteIdenticalAcrossJobConcurrencyArms) {
  service::CampaignConfig config = small_config();
  for (const unsigned jobs : {1u, 4u}) {
    config.job_concurrency = jobs;
    // The worker split depends on the concurrency actually in flight, so
    // re-render the single-process baseline at the same concurrency: the
    // JSONL "workers" field is part of the byte contract.
    const CanonicalReports arm_baseline = canonical(run_in_process(config));
    ShardedCampaignOptions options;
    options.shards = 2;
    options.config = config;
    options.catalog_text = kCatalog;
    const ShardedCampaignResult sharded = run_sharded_campaign(options);
    EXPECT_TRUE(sharded.all_shards_clean());
    const CanonicalReports merged = canonical(sharded.campaign);
    EXPECT_EQ(merged.jsonl, arm_baseline.jsonl) << "jobs=" << jobs;
    EXPECT_EQ(merged.summary, arm_baseline.summary) << "jobs=" << jobs;
  }
}

TEST(ShardedCampaign, KilledShardCompletesCampaignWithFailedJobs) {
  const service::CampaignConfig config = small_config();
  const service::CampaignResult reference = run_in_process(config);

  ShardedCampaignOptions options;
  options.shards = 2;
  options.config = config;
  options.catalog_text = kCatalog;
  options.debug_crash_shard = 0;
  options.debug_crash_after_jobs = 1;  // stream one job, then _exit(42)
  const ShardedCampaignResult sharded = run_sharded_campaign(options);

  EXPECT_FALSE(sharded.all_shards_clean());
  ASSERT_EQ(sharded.shards.size(), 2u);
  const ShardReport& dead = sharded.shards[0];
  const ShardReport& alive = sharded.shards[1];
  EXPECT_FALSE(dead.clean);
  EXPECT_NE(dead.error.find("exit 42"), std::string::npos) << dead.error;
  EXPECT_EQ(dead.jobs_received, 1u);
  EXPECT_TRUE(alive.clean) << alive.error;

  // The campaign still completed: every job index present exactly once, the
  // surviving shard's jobs bit-identical to the reference run, and the dead
  // shard's unreported jobs synthesized as failures with correct identity.
  const auto& jobs = sharded.campaign.jobs;
  ASSERT_EQ(jobs.size(), reference.jobs.size());
  std::size_t synthesized = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].workload, reference.jobs[i].workload);
    EXPECT_EQ(jobs[i].seed, reference.jobs[i].seed);
    EXPECT_EQ(jobs[i].workers, reference.jobs[i].workers);
    if (jobs[i].status == service::JobStatus::kFailed) {
      ++synthesized;
      EXPECT_NE(jobs[i].error.find("shard 0 died"), std::string::npos);
      EXPECT_EQ(i % 2, 0u);  // round-robin: shard 0 owns even indices
    } else {
      std::ostringstream got, want;
      service::write_campaign_jsonl({{jobs[i]}, 0, 1, 1}, got,
                                    {/*zero_timings=*/true});
      service::write_campaign_jsonl({{reference.jobs[i]}, 0, 1, 1}, want,
                                    {/*zero_timings=*/true});
      EXPECT_EQ(got.str(), want.str()) << "job " << i;
    }
  }
  EXPECT_EQ(synthesized, dead.jobs_assigned - dead.jobs_received);
  EXPECT_GT(synthesized, 0u);
  EXPECT_EQ(sharded.campaign.failed(), synthesized);
  // succeeded_per_second diverges from jobs_per_second exactly when jobs
  // failed (the satellite metric this PR adds to the summary).
  EXPECT_LT(sharded.campaign.succeeded_per_second(),
            sharded.campaign.jobs_per_second());
}

TEST(ShardedCampaign, MetricsRollupSumsShardScrapes) {
  ShardedCampaignOptions options;
  options.shards = 2;
  options.config = small_config();
  options.catalog_text = kCatalog;
  options.collect_metrics = true;
  const ShardedCampaignResult sharded = run_sharded_campaign(options);
  EXPECT_TRUE(sharded.all_shards_clean());
  ASSERT_FALSE(sharded.metrics.empty());
  // Every job increments campaign.jobs once in whichever worker ran it; the
  // merged rollup must see the campaign-wide total.
  EXPECT_EQ(sharded.metrics.counters.at("campaign.jobs"),
            sharded.campaign.jobs.size());
  const obs::HistogramSnapshot& seconds =
      sharded.metrics.histograms.at("campaign.job_seconds");
  EXPECT_EQ(seconds.count, sharded.campaign.jobs.size());
}

TEST(ShardedCampaign, WritesPerShardTracesAndMergedMetrics) {
  const std::string dir = testing::TempDir();
  ShardedCampaignOptions options;
  options.shards = 2;
  options.config = small_config();
  options.config.exec.trace_out = dir + "/essns_shard_trace.json";
  options.config.exec.metrics_out = dir + "/essns_shard_metrics.json";
  options.catalog_text = kCatalog;
  const ShardedCampaignResult sharded = run_sharded_campaign(options);
  EXPECT_TRUE(sharded.all_shards_clean());
  for (int k = 0; k < 2; ++k) {
    std::ifstream trace(options.config.exec.trace_out + ".shard" +
                        std::to_string(k));
    EXPECT_TRUE(trace.good()) << "missing shard " << k << " trace";
  }
  std::ifstream metrics(options.config.exec.metrics_out);
  ASSERT_TRUE(metrics.good());
  std::ostringstream text;
  text << metrics.rdbuf();
  EXPECT_NE(text.str().find("campaign.jobs"), std::string::npos);
}

TEST(ShardedCampaign, MoreShardsThanJobsStillMerges) {
  service::CampaignConfig config = small_config();
  ShardedCampaignOptions options;
  options.shards = 12;  // > 8 jobs: four shards get empty slices
  options.config = config;
  options.catalog_text = kCatalog;
  const ShardedCampaignResult sharded = run_sharded_campaign(options);
  EXPECT_TRUE(sharded.all_shards_clean());
  EXPECT_EQ(sharded.campaign.jobs.size(), 8u);
  EXPECT_EQ(sharded.campaign.failed(), 0u);
  const CanonicalReports merged = canonical(sharded.campaign);
  const CanonicalReports baseline = canonical(run_in_process(config));
  EXPECT_EQ(merged.jsonl, baseline.jsonl);
}

TEST(ShardedCampaign, RejectsBadOptionsBeforeForking) {
  ShardedCampaignOptions options;
  options.shards = 0;
  EXPECT_THROW((void)run_sharded_campaign(options), InvalidArgument);
  options.shards = 2;
  options.config.spec.method = "essim-monitor";  // not an Optimizer
  options.catalog_text = kCatalog;
  EXPECT_THROW((void)run_sharded_campaign(options), Error);
}

}  // namespace
}  // namespace essns::shard
