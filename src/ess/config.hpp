// Run configuration: a small key=value format so pipelines can be launched
// from files or command lines without recompiling — the library's front door
// for downstream users (see examples/essns_cli.cpp).
//
// Two groups of keys travel as one value each through every front door
// (run-spec, campaign, serve, shard wire), and each group has exactly one
// parser:
//   SearchSpec, set_search_key — how one job searches:
//     method      ess-ga | essim-ea | essim-de | essim-de-tuned | ess-ns
//                 | ns-de | essim-monitor                  (ess-ns)
//     generations 1..1000 / fitness_threshold finite       (30 / 0.95)
//     population  2..4096 / offspring 1..4096             (24 / 24)
//     novelty_k   0..1024, Eq. (1) neighbourhood; 0 = the whole set (10)
//     islands     1..64, for the essim methods            (3)
//   ExecOptions, set_exec_key — how jobs run (results bit-identical at
//   every setting):
//     cache_mem   shared-cache byte budget, 1..2^20 MiB   (256)
//     simd        auto | avx2 | scalar — relax kernel     (auto)
//     numa        off | auto | on — worker placement      (auto)
//     trace       Chrome trace-event JSON path, or none   (none)
//     metrics_out metrics JSON path, or none              (none)
// A run-spec adds:
//   workload   plains | hills | wind_shift        (plains)
//   size       grid edge in cells, 8..1024        (48)
//   seed       uint64                             (2022)
//   workers    OS worker threads, 1..256          (1)
//   cache      off | step | shared — scenario memoization policy (step)
// The defaults above are a single run's; a campaign or serve job searches
// with generations 15, population 16 and offspring 16 (service::JobSpec).
// Lines starting with '#' and blank lines are ignored.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "cache/scenario_cache.hpp"
#include "common/simd.hpp"
#include "ess/monitor.hpp"
#include "ess/optimizer.hpp"
#include "parallel/affinity.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {

/// The search knobs of one prediction: the OS metaheuristic and its stop
/// condition. RunSpec and service::JobSpec both extend it, so one parser
/// and one wire codec serve every front door.
struct SearchSpec {
  std::string method = "ess-ns";
  int generations = 15;
  double fitness_threshold = 0.95;
  std::size_t population = 16;
  std::size_t offspring = 16;
  int novelty_k = 10;
  int islands = 3;
};

/// Execution knobs: how and where jobs run, never what they compute —
/// results are bit-identical at every setting (property-tested).
struct ExecOptions {
  /// Byte budget of a shared scenario cache.
  std::size_t cache_mem_bytes = cache::kDefaultCacheBytes;
  /// Relax-kernel selection (kAuto resolves to AVX2 when the host has it).
  simd::Mode simd_mode = simd::Mode::kAuto;
  /// NUMA-aware worker placement (kAuto pins only on multi-node hosts).
  parallel::NumaMode numa_mode = parallel::NumaMode::kAuto;
  /// Chrome trace-event JSON output path ("" = off).
  std::string trace_out;
  /// Metrics JSON output path ("" = off).
  std::string metrics_out;

  /// Copy the knobs a pipeline reads (cache budget, SIMD, NUMA).
  void apply(PipelineConfig& config) const;
};

/// Set search key `key` from `value`. Returns false when `key` is not a
/// search key; throws InvalidArgument naming the key on a bad value.
bool set_search_key(SearchSpec& spec, const std::string& key,
                    const std::string& value);

/// Set execution key `key` from `value`; same contract as set_search_key.
bool set_exec_key(ExecOptions& exec, const std::string& key,
                  const std::string& value);

/// The `cache` key's value (run-spec and campaign): off | step | shared.
cache::CachePolicy cache_policy_value(const std::string& value);

struct RunSpec : SearchSpec {
  RunSpec() {  // a single run searches longer than a campaign job
    generations = 30;
    population = 24;
    offspring = 24;
  }

  std::string workload = "plains";
  int size = 48;
  std::uint64_t seed = 2022;
  unsigned workers = 1;
  /// Scenario memoization policy (results bit-identical either way).
  cache::CachePolicy cache_policy = cache::CachePolicy::kStep;
  ExecOptions exec;

  /// All method names parse_run_spec accepts.
  static const std::vector<std::string>& known_methods();
};

/// Parse "key=value" lines. Unknown keys or malformed values throw
/// InvalidArgument naming the offending line.
RunSpec parse_run_spec(std::istream& in);
RunSpec parse_run_spec(const std::string& text);

/// Build the named workload at spec.size.
synth::Workload make_workload(const RunSpec& spec);

/// Build the OS strategy named by spec.method ("essim-monitor" is not an
/// Optimizer — use run_spec() which handles both layouts).
std::unique_ptr<Optimizer> make_optimizer(const SearchSpec& spec);

/// End-to-end: generate the ground truth, run the configured system, return
/// the pipeline-style result (essim-monitor results are converted: one step
/// report per predicted instant with quality and Kign filled in).
PipelineResult run_spec(const RunSpec& spec);

}  // namespace essns::ess
