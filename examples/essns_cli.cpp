// essns_cli: run any configured prediction system from key=value arguments
// or a config file — the command-line front door to the library.
//
//   essns_cli method=ess-ns workload=wind_shift size=48 generations=25
//   essns_cli @run.conf            (read keys from a file)
//   essns_cli campaign --jobs 4 --workers 4 sizes=32 generations=10
//   essns_cli campaign --catalog catalog.conf jsonl=jobs.jsonl
//   essns_cli serve --port 7733 --jobs 2 --workers 4
//   essns_cli --help               (every key, its flag spelling and bounds)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "cache/cache_io.hpp"
#include "common/limits.hpp"
#include "common/table.hpp"
#include "ess/config.hpp"
#include "serve/server.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "service/signals.hpp"
#include "shard/runner.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

// Every key essns_cli takes, in one table: the flag that spells it
// (`--cache-mem 64` is `cache_mem=64`), the modes that take it and its help
// line (an empty key continues the line above). Modes: r single run,
// c campaign, k campaign catalog, s serve. The search keys parse in
// ess::set_search_key, the execution keys in ess::set_exec_key, serve's
// fire keys in synth::set_fire_key.
struct Key {
  const char* key;
  const char* flag;  ///< "" = key=value only
  const char* modes;
  const char* help;
};

constexpr Key kKeys[] = {
    {"method", "", "rcs", "ess-ns | ess-ga | essim-ea | essim-de |"},
    {"", "", "rcs", "essim-de-tuned | ns-de | essim-monitor (ess-ns;"},
    {"", "", "rcs", "campaign and serve jobs cannot run essim-monitor)"},
    {"generations", "", "rcs", "1..1000 per OS step (run 30, job 15)"},
    {"fitness_threshold", "", "rcs", "finite OS early-stop fitness (0.95)"},
    {"population", "", "rcs", "2..4096 (run 24, job 16)"},
    {"offspring", "", "rcs", "1..4096 (run 24, job 16)"},
    {"novelty_k", "", "rcs", "0..1024 Eq. (1) neighbours, 0 = all (10)"},
    {"islands", "", "rcs", "1..64, for the essim methods (3)"},
    {"cache_mem", "--cache-mem", "rcs", "1..1048576 MiB cache budget (256)"},
    {"simd", "--simd", "rcs", "auto | avx2 | scalar relax kernel (auto)"},
    {"numa", "--numa", "rcs", "off | auto | on worker placement (auto)"},
    {"trace", "--trace", "rcs", "Chrome trace-event JSON path or none"},
    {"metrics_out", "--metrics-out", "rcs", "metrics JSON path or none"},
    {"workload", "", "r", "plains | hills | wind_shift (plains)"},
    {"size", "", "r", "8..1024 grid edge (48)"},
    {"seed", "", "rc", "u64 run or campaign seed (2022)"},
    {"workers", "--workers", "r", "1..256 simulation workers (1)"},
    {"workers", "--workers", "cs", "1..256 workers, split over the jobs (1)"},
    {"cache", "--cache", "rc", "off | step | shared memoization (step)"},
    {"jobs", "--jobs", "cs", "1..256 prediction jobs in flight (1)"},
    {"shards", "--shards", "c", "1..64 worker processes (none)"},
    {"catalog", "--catalog", "c", "catalog file; repeatable, inline keys win"},
    {"cache_load", "--cache-load", "cs", "restore a cache snapshot first"},
    {"cache_save", "--cache-save", "cs", "save the cache snapshot at the end"},
    {"jsonl", "", "c", "per-job JSONL or none (campaign_jobs.jsonl)"},
    {"csv", "", "c", "per-job CSV or none (none)"},
    {"summary", "", "c", "summary JSON or none (campaign_summary.json)"},
    {"timings", "", "c", "wall | zero: zeroed clocks, canonical reports"},
    {"terrains", "", "k", "plains,hills,rugged (plains,hills)"},
    {"sizes", "", "k", "16..1024 grid edges (32)"},
    {"weather", "", "k", "steady,wind_shift,diurnal (steady,wind_shift)"},
    {"ignitions", "", "k", "center,offset,edge,corner (center,offset)"},
    {"seeds", "", "k", "1..1024 replicates per cell (1)"},
    {"base_seed", "", "k", "u64 (2022)"},
    {"steps", "", "k", "2..64 ground-truth instants (4)"},
    {"step_minutes", "", "k", "finite, > 0 (45)"},
    {"noise", "", "k", "finite, in [0, 1) (0.02)"},
    {"limit", "", "k", "truncate the catalog, 0 = no cap (0)"},
    {"host", "--host", "s", "bind address (127.0.0.1)"},
    {"port", "--port", "s", "0..65535, 0 = ephemeral (0)"},
    {"port_file", "--port-file", "s", "write the chosen port here"},
    {"queue", "--queue", "s", "1..4096 pending requests (16)"},
    {"seed", "", "s", "u64 campaign seed of every job (2022)"},
    {"terrain", "", "s", "plains | hills | rugged (plains)"},
    {"size", "", "s", "16..1024 grid edge (32)"},
    {"weather", "", "s", "steady | wind_shift | diurnal (steady)"},
    {"ignition", "", "s", "center | offset | edge | corner (center)"},
    {"steps", "", "s", "2..64 ground-truth instants (4)"},
    {"step_minutes", "", "s", "finite, > 0 (45)"},
    {"noise", "", "s", "finite, in [0, 1) (0.02)"},
};

bool takes(const Key& entry, char mode) {
  return std::strchr(entry.modes, mode) != nullptr;
}

/// The help lines of the keys whose modes are exactly `modes` ("rcs") or,
/// for a one-letter `modes`, that take that mode and not every mode.
void print_keys(const char* modes) {
  for (const Key& entry : kKeys) {
    const bool every = std::strcmp(entry.modes, "rcs") == 0;
    if (modes[1] != '\0' ? !every : every || !takes(entry, modes[0]))
      continue;
    std::string name = entry.key;
    if (*entry.flag != '\0') name += std::string(" ") + entry.flag;
    std::printf("  %-28s %s\n", name.c_str(), entry.help);
  }
}

void print_help() {
  std::printf(
      "usage: essns_cli [key=value | --flag value ...] [@config-file]\n"
      "       essns_cli campaign [key=value | --flag value ...]\n"
      "       essns_cli serve [key=value | --flag value ...]\n"
      "A flag is another spelling of its key: --cache-mem 64 is "
      "cache_mem=64.\nResults are bit-identical under every cache, simd, "
      "numa, trace,\nmetrics_out, workers, jobs and shards setting.\n\n"
      "every mode — search and execution keys\n");
  print_keys("rcs");
  std::printf("\nsingle run — one prediction, per-step quality table\n");
  print_keys("r");
  std::printf(
      "\ncampaign — one prediction job per catalog workload, run "
      "concurrently\n");
  print_keys("c");
  std::printf("  (cache_load and cache_save need cache=shared)\n"
              "  catalog keys: terrains x sizes x weather x ignitions x "
              "seeds\n");
  print_keys("k");
  std::printf(
      "\nserve — long-lived prediction server (newline-delimited protocol\n"
      "  over TCP; see README 'Serving'). One engine, one warm cache; the\n"
      "  fire and search keys are defaults a request may override.\n"
      "  SIGINT/SIGTERM drain: in-flight jobs finish, queued ones are\n"
      "  cancelled, the cache snapshot is still saved.\n");
  print_keys("s");
  std::printf(
      "\nexit status: 0 all jobs succeeded (or clean serve shutdown),\n"
      "             1 on usage/config error,\n"
      "             2 when the campaign finished with failed jobs\n");
}

/// argv[i] as a key and its value, advancing i past a flag's value. Prints
/// the error and returns nullopt for an unknown flag, a flag without a
/// value, or an argument that is not key=value.
std::optional<std::pair<std::string, std::string>> next_key(
    int argc, char** argv, int& i, const char* mode) {
  const std::string arg = argv[i];
  if (arg.rfind('-', 0) == 0) {
    for (const Key& entry : kKeys) {
      if (arg != entry.flag) continue;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", arg.c_str());
        return std::nullopt;
      }
      return std::make_pair(std::string(entry.key), std::string(argv[++i]));
    }
    std::fprintf(stderr, "unknown flag '%s' for %s (see --help)\n",
                 arg.c_str(), mode);
    return std::nullopt;
  }
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    std::fprintf(stderr, "%s argument is not key=value: %s\n", mode,
                 arg.c_str());
    return std::nullopt;
  }
  return std::make_pair(arg.substr(0, eq), arg.substr(eq + 1));
}

bool is_catalog_key(const std::string& key) {
  for (const Key& entry : kKeys)
    if (key == entry.key && takes(entry, 'k')) return true;
  return false;
}

int run_campaign(int argc, char** argv) {
  service::CampaignConfig config;
  // Catalog files accumulate in flag order; inline catalog keys go after
  // them, so later files override earlier ones and inline keys override
  // every file (parse_catalog_spec is last-line-wins).
  std::string catalog_file_text;
  std::string catalog_inline_text;
  std::string jsonl_path = "campaign_jobs.jsonl";
  std::string csv_path = "none";
  std::string summary_path = "campaign_summary.json";
  service::ReportOptions report_options;
  unsigned shards = 0;  // 0 = in-process (unsharded) campaign
  std::string cache_load_path;
  std::string cache_save_path;

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      return 0;
    }
    const auto key_value = next_key(argc, argv, i, "campaign");
    if (!key_value) return 1;
    const auto& [key, value] = *key_value;
    try {
      if (is_catalog_key(key)) {
        catalog_inline_text += key + "=" + value + "\n";
      } else if (key == "catalog") {
        std::ifstream file(value);
        if (!file) throw IoError("cannot open catalog file " + value);
        std::ostringstream text;
        text << file.rdbuf();
        catalog_file_text += text.str() + "\n";
      } else if (key == "shards") {
        shards = static_cast<unsigned>(
            limits::int_value(key, value, limits::range::shards));
      } else if (key == "cache_load") {
        cache_load_path = value;
      } else if (key == "cache_save") {
        cache_save_path = value;
      } else if (key == "jsonl") {
        jsonl_path = value;
      } else if (key == "csv") {
        csv_path = value;
      } else if (key == "summary") {
        summary_path = value;
      } else if (key == "timings") {
        if (value != "wall" && value != "zero")
          throw InvalidArgument("key 'timings' expects wall|zero, got '" +
                                value + "'");
        report_options.zero_timings = value == "zero";
      } else if (!service::set_campaign_key(config, key, value)) {
        throw InvalidArgument("unknown campaign key: " + key);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  if (!cache_load_path.empty() || !cache_save_path.empty()) {
    if (config.spec.cache_policy != cache::CachePolicy::kShared) {
      std::fprintf(stderr,
                   "--cache-load/--cache-save need --cache shared (the "
                   "snapshot is the shared cache)\n");
      return 1;
    }
    if (shards > 0) {
      std::fprintf(stderr,
                   "--cache-load/--cache-save are incompatible with --shards "
                   "(worker processes do not share one cache)\n");
      return 1;
    }
  }

  // Drain instead of die on SIGINT/SIGTERM: in-flight jobs finish, queued
  // ones resolve as cancelled records, and every report below still writes.
  service::ScopedSignalDrain drain_on_signal;

  try {
    const std::string catalog_text = catalog_file_text + catalog_inline_text;
    const synth::CatalogSpec spec = synth::parse_catalog_spec(catalog_text);
    const std::vector<synth::Workload> workloads =
        synth::generate_catalog(spec);
    if (shards > 0)
      std::printf(
          "campaign: %zu workloads, %u shard processes, %u concurrent jobs, "
          "%u workers\n",
          workloads.size(), shards, config.job_concurrency,
          config.total_workers);
    else
      std::printf("campaign: %zu workloads, %u concurrent jobs, %u workers\n",
                  workloads.size(), config.job_concurrency,
                  config.total_workers);

    const std::size_t total = workloads.size();
    config.on_job_done = [total](const service::JobRecord& job) {
      std::printf("  job %3zu/%zu  %-32s %-9s %6.2fs%s%s\n", job.index + 1,
                  total, job.workload.c_str(),
                  service::to_string(job.status), job.elapsed_seconds,
                  job.error.empty() ? "" : "  ", job.error.c_str());
      std::fflush(stdout);
    };

    std::shared_ptr<cache::SharedScenarioCache> persistent_cache;
    if (!cache_load_path.empty() || !cache_save_path.empty()) {
      persistent_cache = std::make_shared<cache::SharedScenarioCache>(
          config.exec.cache_mem_bytes);
      if (!cache_load_path.empty()) {
        const cache::RestoreStats restored =
            cache::load_cache(*persistent_cache, cache_load_path);
        std::printf(
            "cache: restored %zu/%zu entries from %s (%zu evicted, %zu "
            "rejected by the %.0f MiB budget)\n",
            restored.restored, restored.entries_in_file,
            cache_load_path.c_str(), restored.evictions, restored.rejected,
            static_cast<double>(config.exec.cache_mem_bytes) /
                (1024.0 * 1024.0));
      }
      config.shared_cache = persistent_cache;
    }

    service::CampaignResult result;
    std::vector<shard::ShardReport> shard_reports;
    if (shards > 0) {
      shard::ShardedCampaignOptions sharded_options;
      sharded_options.shards = shards;
      sharded_options.config = config;
      sharded_options.catalog_text = catalog_text;
      shard::ShardedCampaignResult sharded =
          shard::run_sharded_campaign(sharded_options);
      result = std::move(sharded.campaign);
      shard_reports = std::move(sharded.shards);
    } else {
      service::CampaignScheduler scheduler(config);
      result = scheduler.run(workloads);
    }

    std::printf("\n");
    if (!shard_reports.empty()) {
      TextTable shard_table("shards (" + std::to_string(shards) +
                            " worker processes)");
      shard_table.set_header({"shard", "jobs", "recv", "conc", "wall[s]",
                              "busy[s]", "util%", "status"});
      for (const auto& report : shard_reports) {
        shard_table.add_row(
            {std::to_string(report.shard_index),
             std::to_string(report.jobs_assigned),
             std::to_string(report.jobs_received),
             std::to_string(report.job_concurrency),
             TextTable::num(report.wall_seconds, 2),
             TextTable::num(report.busy_seconds, 2),
             TextTable::num(100.0 * report.utilization(), 1),
             report.clean ? "clean" : report.error});
      }
      shard_table.print();
    }
    service::campaign_summary_table(result).print();
    std::printf(
        "%zu/%zu jobs succeeded in %.2fs wall (%.3f jobs/sec, mean quality "
        "%.3f)\ncache %s: hit-rate %.2f, %zu evictions, %.1f MiB live\n",
        result.succeeded(), result.jobs.size(), result.wall_seconds,
        result.jobs_per_second(), result.mean_quality(),
        cache::to_string(result.cache_policy), result.cache_hit_rate(),
        result.cache_evictions(),
        static_cast<double>(result.cache_bytes()) / (1024.0 * 1024.0));

    if (jsonl_path != "none") {
      service::write_campaign_jsonl(result, jsonl_path, report_options);
      std::printf("wrote %s\n", jsonl_path.c_str());
    }
    if (csv_path != "none") {
      service::write_campaign_csv(result, csv_path, report_options);
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!config.exec.trace_out.empty())
      std::printf("wrote %s%s\n", config.exec.trace_out.c_str(),
                  shards > 0 ? ".shard<k> (one per shard)" : "");
    if (!config.exec.metrics_out.empty())
      std::printf("wrote %s\n", config.exec.metrics_out.c_str());
    if (summary_path != "none") {
      std::ofstream out(summary_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", summary_path.c_str());
        return 1;
      }
      out << service::campaign_summary_json(result, report_options) << "\n";
      std::printf("wrote %s\n", summary_path.c_str());
    }
    if (!cache_save_path.empty()) {
      const std::size_t saved =
          cache::save_cache(*persistent_cache, cache_save_path);
      std::printf("cache: saved %zu entries to %s\n", saved,
                  cache_save_path.c_str());
    }
    if (service::drain_requested())
      std::printf(
          "campaign drained early (signal received): finished jobs are "
          "reported above, cancelled ones as failed records\n");
    return result.failed() == 0 ? 0 : 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "campaign error: %s\n", e.what());
    return 1;
  }
}

int run_serve(int argc, char** argv) {
  serve::ServeConfig config;

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      return 0;
    }
    const auto key_value = next_key(argc, argv, i, "serve");
    if (!key_value) return 1;
    const auto& [key, value] = *key_value;
    try {
      if (!serve::set_serve_key(config, key, value))
        throw InvalidArgument("unknown serve key: " + key);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  // SIGINT/SIGTERM drain the server exactly like the `shutdown` verb: the
  // poll loop notices, in-flight jobs finish, the cache snapshot still saves.
  service::ScopedSignalDrain drain_on_signal;

  try {
    serve::Server server(std::move(config));
    server.start();
    std::printf("serving on port %d (%u job slots, %u workers, queue %zu)\n",
                server.port(), server.engine().job_slots(),
                server.engine().config().total_workers,
                server.engine().config().queue_capacity);
    if (server.restored_entries() > 0)
      std::printf("cache: restored %zu entries — starting warm\n",
                  server.restored_entries());
    std::fflush(stdout);
    const int rc = server.run();
    std::printf("server stopped%s\n",
                service::drain_requested() ? " (signal drain)" : "");
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "serve error: %s\n", e.what());
    return 1;
  }
}

int run_single(int argc, char** argv) {
  std::ostringstream config_text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      return 0;
    }
    if (argv[i][0] == '@') {
      std::ifstream file(argv[i] + 1);
      if (!file) {
        std::fprintf(stderr, "cannot open config file %s\n", argv[i] + 1);
        return 1;
      }
      config_text << file.rdbuf() << '\n';
      continue;
    }
    const auto key_value = next_key(argc, argv, i, "single-run mode");
    if (!key_value) return 1;
    config_text << key_value->first << '=' << key_value->second << '\n';
  }

  ess::RunSpec spec;
  try {
    spec = ess::parse_run_spec(config_text.str());
  } catch (const Error& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }

  std::printf("running %s on %s (%dx%d), seed %llu, %d generations\n",
              spec.method.c_str(), spec.workload.c_str(), spec.size, spec.size,
              static_cast<unsigned long long>(spec.seed), spec.generations);

  const ess::PipelineResult result = ess::run_spec(spec);

  TextTable table(result.optimizer_name + " on " + spec.workload);
  table.set_header({"predicted", "Kign", "calibration", "quality"});
  for (const auto& step : result.steps) {
    table.add_row({"t" + std::to_string(step.step), TextTable::num(step.kign, 2),
                   TextTable::num(step.calibration_fitness),
                   TextTable::num(step.prediction_quality)});
  }
  table.print();
  std::printf("mean prediction quality: %.3f\n", result.mean_quality());
  if (!spec.exec.trace_out.empty())
    std::printf("wrote %s\n", spec.exec.trace_out.c_str());
  if (!spec.exec.metrics_out.empty())
    std::printf("wrote %s\n", spec.exec.metrics_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden re-invocation mode: `campaign --shards N` fork/execs this same
  // binary once per shard; the worker talks wire frames on stdin/stdout and
  // never reaches the normal CLI paths.
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return essns::shard::shard_worker_main();
  if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
    print_help();
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
    return run_campaign(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return run_serve(argc, argv);
  return run_single(argc, argv);
}
