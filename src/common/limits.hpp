// Upper bounds on the integer inputs of every external surface: serve
// requests (serve/protocol.cpp), run-spec files (ess::parse_run_spec),
// catalog specs (synth::parse_catalog_spec) and the essns_cli flags and
// keys. Lower bounds stay with each surface; these caps keep one input from
// asking for unbounded memory, threads or work (sizes=100000 would be an
// 80 GB grid, --jobs 100000 as many threads).
#pragma once

#include <optional>
#include <string>

#include "common/parse.hpp"

namespace essns::limits {

inline constexpr int kMaxGridSize = 1024;      ///< cells per side
inline constexpr int kMaxSteps = 64;           ///< prediction steps
inline constexpr int kMaxGenerations = 1000;   ///< per optimizer run
inline constexpr int kMaxPopulation = 4096;    ///< population and offspring
inline constexpr int kMaxNoveltyK = 1024;      ///< novelty neighbours
inline constexpr int kMaxIslands = 64;         ///< islands / Monitor masters
inline constexpr int kMaxSeedsPerCase = 1024;  ///< catalog replicates
inline constexpr int kMaxWorkers = 256;        ///< simulation threads
inline constexpr int kMaxJobs = 256;           ///< concurrent prediction jobs
inline constexpr int kMaxShards = 64;          ///< shard worker processes
inline constexpr int kMaxQueue = 4096;         ///< serve's pending requests
inline constexpr int kMaxCacheMemMiB = 1 << 20;  ///< 1 TiB cache budget

/// Whole-string int in [lo, hi] (parse_int plus the range); nullopt
/// otherwise. Each surface wraps it in its own error channel.
inline std::optional<int> parse_int_in(const std::string& text, int lo,
                                       int hi) {
  const auto v = parse_int(text);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

}  // namespace essns::limits
