// Bounds and value parsers shared by every key=value surface: serve
// requests (serve/protocol.cpp), run-spec files (ess::parse_run_spec),
// catalog specs (synth::parse_catalog_spec), the campaign and serve keys
// and the shard wire. The caps keep one input from asking for unbounded
// memory, threads or work (sizes=100000 would be an 80 GB grid, --jobs
// 100000 as many threads). A key shared by several surfaces has one Range
// below, read by its one parser (ess::set_search_key, ess::set_exec_key,
// synth::set_fire_key) and by the wire decoders.
#pragma once

#include <optional>
#include <string>

#include "common/error.hpp"
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

/// The [lo, hi] of one integer key. Every parser and wire decoder that
/// takes the key reads this one bound.
struct Range {
  int lo;
  int hi;
  bool contains(long long value) const { return value >= lo && value <= hi; }
};

namespace range {
inline constexpr Range generations{1, kMaxGenerations};
inline constexpr Range population{2, kMaxPopulation};
inline constexpr Range offspring{1, kMaxPopulation};
inline constexpr Range novelty_k{0, kMaxNoveltyK};  ///< 0 = the whole set
inline constexpr Range islands{1, kMaxIslands};
inline constexpr Range size{16, kMaxGridSize};  ///< a fire's grid edge
inline constexpr Range steps{2, kMaxSteps};
inline constexpr Range workers{1, kMaxWorkers};
inline constexpr Range jobs{1, kMaxJobs};
inline constexpr Range shards{1, kMaxShards};
inline constexpr Range queue{1, kMaxQueue};
inline constexpr Range cache_mem_mib{1, kMaxCacheMemMiB};
}  // namespace range

/// Whole-string int in [lo, hi] (parse_int plus the range); nullopt
/// otherwise.
inline std::optional<int> parse_int_in(const std::string& text, int lo,
                                       int hi) {
  const auto v = parse_int(text);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

// The value of key `key`, or InvalidArgument naming the key, the value and
// what the key expects — one wording for every surface.

inline int int_value(const std::string& key, const std::string& value,
                     Range range) {
  const auto v = parse_int_in(value, range.lo, range.hi);
  if (!v)
    throw InvalidArgument("key '" + key + "' expects an integer in [" +
                          std::to_string(range.lo) + ", " +
                          std::to_string(range.hi) + "], got '" + value + "'");
  return *v;
}

inline std::uint64_t u64_value(const std::string& key,
                               const std::string& value) {
  const auto v = parse_uint64(value);
  if (!v)
    throw InvalidArgument("key '" + key +
                          "' expects a 64-bit unsigned integer, got '" +
                          value + "'");
  return *v;
}

inline double double_value(const std::string& key, const std::string& value) {
  const auto v = parse_double(value);
  if (!v)
    throw InvalidArgument("key '" + key + "' expects a finite number, got '" +
                          value + "'");
  return *v;
}

/// `parsed` is the enum parser's answer for `value`; `choices` spells the
/// accepted names ("off|step|shared").
template <typename T>
T enum_value(const std::string& key, const std::string& value,
             const std::optional<T>& parsed, const char* choices) {
  if (!parsed)
    throw InvalidArgument("key '" + key + "' expects " + choices + ", got '" +
                          value + "'");
  return *parsed;
}

}  // namespace essns::limits
