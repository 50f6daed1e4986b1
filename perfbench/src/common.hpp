// Shared pieces of the benchmark program: the run options, the result every
// workload fills in, clocks, quantiles and the oracle comparison.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ess/pipeline.hpp"
#include "service/engine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string essns_cli;  ///< path of the shipped binary (serve workload)
  std::string run_dir;    ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed + refused + wrong-result operations
  /// False when an output diverged from the oracle or the run is invalid
  /// (generator lag, tracing not result-neutral); the program exits nonzero.
  bool correct = true;
  std::vector<std::string> problems;
  std::map<std::string, double> end_to_end;  ///< BENCHMARK.json end_to_end
  std::map<std::string, double> per_layer;   ///< BENCHMARK.json per_layer
  /// Further end-to-end figures printed for people, not gated.
  std::vector<Metric> report;
  /// Traced runs: the layer budget, printed as text.
  std::vector<std::string> budget_lines;

  /// Record a problem that leaves the outputs correct (a refused or failed
  /// operation, counted in `failed`).
  void note(const std::string& problem) {
    if (problems.size() < kMaxProblems) problems.push_back(problem);
  }
  /// Record a wrong output or an invalid run.
  void fail(const std::string& problem) {
    correct = false;
    note(problem);
  }
  static constexpr std::size_t kMaxProblems = 20;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MiB.
double peak_rss_mib(const std::string& pid);

/// splitmix64 step: the benchmark's own seed derivation.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// The benchmark's seed stream.
struct Stream {
  std::uint64_t state;
  std::uint64_t next() { return state = mix_seed(state, 7); }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[next() % i]);
  }
};

/// True when the two records carry bit-identical per-step qualities and
/// kigns (and both succeeded with the same seed).
bool same_results(const essns::service::JobRecord& a,
                  const essns::service::JobRecord& b);

/// Run `count` independent tasks on `threads` threads (task index in).
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task);

/// Workload entry points (campaign.cpp, serve.cpp).
RunResult run_campaign(const Options& options);
RunResult run_serve(const Options& options);

}  // namespace perfbench
