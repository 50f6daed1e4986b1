// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload campaign_uniform|campaign_dem|serve_tracked
//             --seed N --seconds S --trace 0|1
//             --essns-cli PATH --run-dir DIR
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set. Any
// oracle divergence or invalid run exits 1 (after printing the result).
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "bench_json.hpp"
#include "common/parse.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double value : values) total += value;
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_results(const essns::service::JobRecord& a,
                  const essns::service::JobRecord& b) {
  using essns::service::JobStatus;
  if (a.status != JobStatus::kSucceeded || b.status != JobStatus::kSucceeded)
    return false;
  if (a.seed != b.seed || a.result.steps.size() != b.result.steps.size())
    return false;
  for (std::size_t i = 0; i < a.result.steps.size(); ++i) {
    const auto& x = a.result.steps[i];
    const auto& y = b.result.steps[i];
    if (std::bit_cast<std::uint64_t>(x.prediction_quality) !=
            std::bit_cast<std::uint64_t>(y.prediction_quality) ||
        std::bit_cast<std::uint64_t>(x.kign) !=
            std::bit_cast<std::uint64_t>(y.kign))
      return false;
  }
  return true;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) task(i);
    });
  for (std::thread& thread : pool) thread.join();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The BENCHMARK.json end_to_end set, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"jobs_per_s", "1/s"},
    {"slo_ratio", "ratio"},
    {"req_mean_s", "s"},
};

// The BENCHMARK.json per_layer set. A layer a workload does not exercise
// reports 0 (it did no work there).
constexpr MetricSpec kPerLayer[] = {
    {"synth.workload_s", "s"},
    {"synth.truth_s", "s"},
    {"engine.queue_wait_s_p50", "s"},
    {"engine.queue_wait_s_p90", "s"},
    {"engine.run_s_p50", "s"},
    {"req.p50_s", "s"},
    {"req.p90_s", "s"},
    {"serve.wait_s_p50", "s"},
    {"serve.rejected", "count"},
    {"serve.cold_p50_s", "s"},
    {"serve.warm_p50_s", "s"},
    {"serve.extend_p50_s", "s"},
    {"step.p50_s", "s"},
    {"step.p95_s", "s"},
    {"pipeline.os_s", "s"},
    {"pipeline.ss_s", "s"},
    {"pipeline.cs_s", "s"},
    {"pipeline.ps_s", "s"},
    {"pipeline.os_share", "ratio"},
    {"pipeline.ss_share", "ratio"},
    {"pipeline.cs_share", "ratio"},
    {"pipeline.ps_share", "ratio"},
    {"evaluate.s", "s"},
    {"evaluate.calls", "count"},
    {"evaluate.genomes", "count"},
    {"optimizer.self_s", "s"},
    {"optimizer.generations", "count"},
    {"optimizer.evaluations", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.peak_bytes", "bytes"},
    {"sweep.s_p50", "s"},
    {"sweep.s_p90", "s"},
    {"sweep.count", "count"},
    {"sweep.ns_per_pop", "ns"},
    {"sweep.tt_rebuilds_per_sweep", "ratio"},
    {"fitness.s_p50", "s"},
    {"batch.straggler_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"gen.lag_p90_s", "s"},
    {"gen.lag_max_s", "s"},
    {"budget.unaccounted_ratio", "ratio"},
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign_uniform|campaign_dem|serve_tracked --seed N "
               "--seconds S --trace 0|1 --essns-cli PATH --run-dir DIR\n",
               message);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--hardware") == 0) {
    std::printf("{%s}\n", essns::benchmain::hardware_json_fields().c_str());
    return 0;
  }
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const auto seed = essns::parse_uint64(value);
      if (!seed) return usage("--seed expects an unsigned integer");
      options.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = essns::parse_double(value);
      if (!seconds || !(*seconds > 0.0 && *seconds <= 600.0))
        return usage("--seconds expects a number in (0, 600]");
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--essns-cli") {
      options.essns_cli = value;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in --name value pairs");

  RunResult result;
  try {
    if (options.workload == "campaign_uniform" ||
        options.workload == "campaign_dem") {
      result = run_campaign(options);
    } else if (options.workload == "serve_tracked") {
      if (options.essns_cli.empty() || options.run_dir.empty())
        return usage("serve_tracked needs --essns-cli and --run-dir");
      result = run_serve(options);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::map<std::string, double>& values =
      options.trace ? result.per_layer : result.end_to_end;

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("hardware {%s}\n",
              essns::benchmain::hardware_json_fields().c_str());
  const auto print_metric = [](const Metric& metric) {
    std::printf("  %-30s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  };
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  std::string json = "{";
  bool first = true;
  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!options.trace && it == values.end())
      result.fail(std::string("end-to-end metric ") + spec.name +
                  " was not measured");
    print_metric({spec.name, value, spec.unit});
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}";
  if (!result.report.empty()) {
    std::printf("further end-to-end figures (not gated):\n");
    for (const Metric& metric : result.report) print_metric(metric);
  }
  for (const std::string& line : result.budget_lines)
    std::printf("%s\n", line.c_str());
  for (const std::string& problem : result.problems)
    std::printf("PROBLEM: %s\n", problem.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
