#include "shard/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/limits.hpp"

namespace essns::shard {
namespace {

// Dimension cap for decoded grids: 2^20 cells per side is far beyond any
// catalog (and rows * cols is re-checked against the remaining payload
// before the slab is allocated).
constexpr std::int32_t kMaxGridDim = 1 << 20;

template <typename T>
void encode_grid(BinaryWriter& out, const Grid<T>& grid) {
  out.u8(grid.empty() ? 0 : 1);
  if (grid.empty()) return;
  out.i32(grid.rows());
  out.i32(grid.cols());
  static_assert(sizeof(T) == 1 || sizeof(T) == 8,
                "grid cells travel as raw u8 or f64 bit patterns");
  if constexpr (sizeof(T) == 1) {
    out.bytes(reinterpret_cast<const std::uint8_t*>(grid.data()), grid.size());
  } else {
    for (const T& cell : grid) out.f64(static_cast<double>(cell));
  }
}

template <typename T>
Grid<T> decode_grid(BinaryReader& in) {
  if (in.u8() == 0) return Grid<T>{};
  const std::int32_t rows = in.i32();
  const std::int32_t cols = in.i32();
  if (rows <= 0 || cols <= 0 || rows > kMaxGridDim || cols > kMaxGridDim)
    throw WireError("grid dimensions out of range");
  const std::uint64_t cells =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  in.need(cells * sizeof(T), "grid cells");
  Grid<T> grid(rows, cols);
  if constexpr (sizeof(T) == 1) {
    in.bytes(reinterpret_cast<std::uint8_t*>(grid.data()), grid.size());
  } else {
    for (T& cell : grid) cell = static_cast<T>(in.f64());
  }
  return grid;
}

void encode_step(BinaryWriter& out, const ess::StepReport& step) {
  out.i32(step.step);
  out.f64(step.kign);
  out.f64(step.calibration_fitness);
  out.f64(step.best_os_fitness);
  out.f64(step.prediction_quality);
  out.u64(step.os_evaluations);
  out.i32(step.os_generations);
  out.f64(step.elapsed_seconds);
  out.u64(step.solution_count);
  out.f64(step.os_seconds);
  out.f64(step.ss_seconds);
  out.f64(step.cs_seconds);
  out.f64(step.ps_seconds);
  out.u64(step.cache_hits);
  out.u64(step.cache_misses);
  out.u64(step.cache_evictions);
  out.u64(step.cache_insertions_rejected);
  out.u64(step.cache_entries);
  out.u64(step.cache_bytes);
  out.u64(step.batch_dedup_hits);
}

ess::StepReport decode_step(BinaryReader& in) {
  ess::StepReport step;
  step.step = in.i32();
  step.kign = in.f64();
  step.calibration_fitness = in.f64();
  step.best_os_fitness = in.f64();
  step.prediction_quality = in.f64();
  step.os_evaluations = static_cast<std::size_t>(in.u64());
  step.os_generations = in.i32();
  step.elapsed_seconds = in.f64();
  step.solution_count = static_cast<std::size_t>(in.u64());
  step.os_seconds = in.f64();
  step.ss_seconds = in.f64();
  step.cs_seconds = in.f64();
  step.ps_seconds = in.f64();
  step.cache_hits = static_cast<std::size_t>(in.u64());
  step.cache_misses = static_cast<std::size_t>(in.u64());
  step.cache_evictions = static_cast<std::size_t>(in.u64());
  step.cache_insertions_rejected = static_cast<std::size_t>(in.u64());
  step.cache_entries = static_cast<std::size_t>(in.u64());
  step.cache_bytes = static_cast<std::size_t>(in.u64());
  step.batch_dedup_hits = static_cast<std::size_t>(in.u64());
  return step;
}

void encode_cache_stats(BinaryWriter& out, const cache::CacheStats& stats) {
  out.u64(stats.hits);
  out.u64(stats.misses);
  out.u64(stats.evictions);
  out.u64(stats.insertions_rejected);
  out.u64(stats.entries);
  out.u64(stats.bytes);
}

cache::CacheStats decode_cache_stats(BinaryReader& in) {
  cache::CacheStats stats;
  stats.hits = static_cast<std::size_t>(in.u64());
  stats.misses = static_cast<std::size_t>(in.u64());
  stats.evictions = static_cast<std::size_t>(in.u64());
  stats.insertions_rejected = static_cast<std::size_t>(in.u64());
  stats.entries = static_cast<std::size_t>(in.u64());
  stats.bytes = static_cast<std::size_t>(in.u64());
  return stats;
}

std::uint8_t checked_enum(BinaryReader& in, std::uint8_t max,
                          const char* what) {
  const std::uint8_t value = in.u8();
  if (value > max)
    throw WireError(std::string("unknown enum value for ") + what);
  return value;
}

/// Every payload decoder must consume its buffer exactly; leftovers mean
/// writer and reader disagree about the format.
void require_done(const BinaryReader& in, const char* what) {
  if (!in.done())
    throw WireError(std::string("trailing bytes after ") + what + " payload");
}

// The frame crosses a process boundary, so its knobs get the bounds their
// keys have at every other surface (common/limits.hpp): a corrupted frame
// must not ask a worker for billions of job slots, threads or generations.
template <typename T>
void require_in(T value, limits::Range range, const char* what) {
  if (!std::in_range<int>(value) || !range.contains(static_cast<int>(value)))
    throw WireError(std::string("worker config ") + what + " out of range");
}

void encode_job_spec(BinaryWriter& out, const service::JobSpec& spec) {
  out.str(spec.method);
  out.i32(spec.generations);
  out.f64(spec.fitness_threshold);
  out.u64(spec.population);
  out.u64(spec.offspring);
  out.i32(spec.novelty_k);
  out.i32(spec.islands);
  out.u64(spec.max_solution_maps);
  out.u8(static_cast<std::uint8_t>(spec.cache_policy));
  out.u8(spec.keep_final_maps ? 1 : 0);
}

service::JobSpec decode_job_spec(BinaryReader& in) {
  service::JobSpec spec;
  spec.method = in.str();
  spec.generations = in.i32();
  spec.fitness_threshold = in.f64();
  spec.population = static_cast<std::size_t>(in.u64());
  spec.offspring = static_cast<std::size_t>(in.u64());
  spec.novelty_k = in.i32();
  spec.islands = in.i32();
  spec.max_solution_maps = static_cast<std::size_t>(in.u64());
  spec.cache_policy =
      static_cast<cache::CachePolicy>(checked_enum(in, 2, "cache policy"));
  spec.keep_final_maps = checked_enum(in, 1, "keep_final_maps") != 0;
  const auto& methods = ess::RunSpec::known_methods();
  if (std::find(methods.begin(), methods.end(), spec.method) == methods.end())
    throw WireError("worker config method unknown");
  require_in(spec.generations, limits::range::generations, "generations");
  if (!std::isfinite(spec.fitness_threshold))
    throw WireError("worker config fitness_threshold not finite");
  require_in(spec.population, limits::range::population, "population");
  require_in(spec.offspring, limits::range::offspring, "offspring");
  require_in(spec.novelty_k, limits::range::novelty_k, "novelty_k");
  require_in(spec.islands, limits::range::islands, "islands");
  return spec;
}

void encode_exec_options(BinaryWriter& out, const ess::ExecOptions& exec) {
  out.u64(exec.cache_mem_bytes);
  out.u8(static_cast<std::uint8_t>(exec.simd_mode));
  out.u8(static_cast<std::uint8_t>(exec.numa_mode));
  out.str(exec.trace_out);
  out.str(exec.metrics_out);
}

ess::ExecOptions decode_exec_options(BinaryReader& in) {
  ess::ExecOptions exec;
  exec.cache_mem_bytes = static_cast<std::size_t>(in.u64());
  exec.simd_mode = static_cast<simd::Mode>(checked_enum(in, 2, "simd mode"));
  exec.numa_mode =
      static_cast<parallel::NumaMode>(checked_enum(in, 2, "numa mode"));
  exec.trace_out = in.str();
  exec.metrics_out = in.str();
  // The cache_mem key's bound, in whole MiB.
  require_in(exec.cache_mem_bytes >> 20, limits::range::cache_mem_mib,
             "cache_mem_bytes");
  return exec;
}

}  // namespace

std::vector<std::uint8_t> encode_worker_config(const WorkerConfig& config) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(config.shard_index);
  out.u32(config.shard_count);
  out.str(config.catalog_text);
  out.u64(config.seed);
  out.u32(config.job_concurrency);
  out.u32(config.workers_per_job);
  out.u8(config.collect_metrics ? 1 : 0);
  encode_job_spec(out, config.spec);
  encode_exec_options(out, config.exec);
  out.i32(config.debug_crash_after_jobs);
  return bytes;
}

WorkerConfig decode_worker_config(BinaryReader& in) {
  WorkerConfig config;
  config.shard_index = in.u32();
  config.shard_count = in.u32();
  config.catalog_text = in.str();
  config.seed = in.u64();
  config.job_concurrency = in.u32();
  config.workers_per_job = in.u32();
  config.collect_metrics = checked_enum(in, 1, "collect_metrics") != 0;
  config.spec = decode_job_spec(in);
  config.exec = decode_exec_options(in);
  config.debug_crash_after_jobs = in.i32();
  if (config.shard_count == 0 || config.shard_index >= config.shard_count)
    throw WireError("shard index out of range");
  require_in(config.shard_count, limits::range::shards, "shard count");
  require_in(config.job_concurrency, limits::range::jobs, "job concurrency");
  require_in(config.workers_per_job, limits::range::workers,
             "workers per job");
  require_done(in, "worker config");
  return config;
}

std::vector<std::uint8_t> encode_job_record(const service::JobRecord& record) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u64(record.index);
  out.str(record.workload);
  out.i32(record.rows);
  out.i32(record.cols);
  out.u64(record.seed);
  out.u32(record.workers);
  out.u8(record.status == service::JobStatus::kSucceeded ? 1 : 0);
  out.str(record.error);
  out.f64(record.elapsed_seconds);
  out.str(record.result.optimizer_name);
  out.u64(record.result.steps.size());
  for (const ess::StepReport& step : record.result.steps)
    encode_step(out, step);
  encode_grid(out, record.final_probability);
  encode_grid(out, record.final_prediction);
  return bytes;
}

service::JobRecord decode_job_record(BinaryReader& in) {
  service::JobRecord record;
  record.index = static_cast<std::size_t>(in.u64());
  record.workload = in.str();
  record.rows = in.i32();
  record.cols = in.i32();
  record.seed = in.u64();
  record.workers = in.u32();
  record.status = checked_enum(in, 1, "job status") != 0
                      ? service::JobStatus::kSucceeded
                      : service::JobStatus::kFailed;
  record.error = in.str();
  record.elapsed_seconds = in.f64();
  record.result.optimizer_name = in.str();
  const std::uint64_t step_count = in.u64();
  // A step encodes to > 100 bytes; reject counts the payload cannot hold
  // before reserving anything.
  in.need(step_count, "step reports");
  record.result.steps.reserve(static_cast<std::size_t>(step_count));
  for (std::uint64_t i = 0; i < step_count; ++i)
    record.result.steps.push_back(decode_step(in));
  record.final_probability = decode_grid<double>(in);
  record.final_prediction = decode_grid<std::uint8_t>(in);
  require_done(in, "job record");
  return record;
}

std::vector<std::uint8_t> encode_metrics_snapshot(
    const obs::MetricsSnapshot& snapshot) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u64(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    out.str(name);
    out.u64(value);
  }
  out.u64(snapshot.histograms.size());
  for (const auto& [name, histogram] : snapshot.histograms) {
    out.str(name);
    out.u64(histogram.count);
    out.f64(histogram.sum);
    out.f64(histogram.min);
    out.f64(histogram.max);
    // Sparse bucket encoding: most of the 261 buckets are empty.
    std::uint64_t nonzero = 0;
    for (const std::uint64_t count : histogram.buckets)
      if (count != 0) ++nonzero;
    out.u64(nonzero);
    for (std::size_t bucket = 0; bucket < histogram.buckets.size(); ++bucket) {
      if (histogram.buckets[bucket] == 0) continue;
      out.u32(static_cast<std::uint32_t>(bucket));
      out.u64(histogram.buckets[bucket]);
    }
  }
  return bytes;
}

obs::MetricsSnapshot decode_metrics_snapshot(BinaryReader& in) {
  obs::MetricsSnapshot snapshot;
  const std::uint64_t counter_count = in.u64();
  in.need(counter_count, "metric counters");
  for (std::uint64_t i = 0; i < counter_count; ++i) {
    const std::string name = in.str();
    snapshot.counters[name] = in.u64();
  }
  const std::uint64_t histogram_count = in.u64();
  in.need(histogram_count, "metric histograms");
  for (std::uint64_t i = 0; i < histogram_count; ++i) {
    const std::string name = in.str();
    obs::HistogramSnapshot& histogram = snapshot.histograms[name];
    histogram.count = in.u64();
    histogram.sum = in.f64();
    histogram.min = in.f64();
    histogram.max = in.f64();
    const std::uint64_t nonzero = in.u64();
    in.need(nonzero, "histogram buckets");
    if (histogram.count > 0)
      histogram.buckets.resize(obs::Histogram::kBucketCount, 0);
    for (std::uint64_t b = 0; b < nonzero; ++b) {
      const std::uint32_t bucket = in.u32();
      const std::uint64_t count = in.u64();
      if (bucket >= obs::Histogram::kBucketCount)
        throw WireError("histogram bucket index out of range");
      if (histogram.buckets.empty())
        throw WireError("histogram bucket data with zero count");
      histogram.buckets[bucket] = count;
    }
  }
  return snapshot;
}

std::vector<std::uint8_t> encode_shard_summary(const ShardSummary& summary) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(summary.shard_index);
  out.u64(summary.jobs_run);
  out.f64(summary.wall_seconds);
  out.f64(summary.busy_seconds);
  encode_cache_stats(out, summary.shared_cache_stats);
  const std::vector<std::uint8_t> metrics =
      encode_metrics_snapshot(summary.metrics);
  out.u64(metrics.size());
  out.bytes(metrics.data(), metrics.size());
  return bytes;
}

ShardSummary decode_shard_summary(BinaryReader& in) {
  ShardSummary summary;
  summary.shard_index = in.u32();
  summary.jobs_run = in.u64();
  summary.wall_seconds = in.f64();
  summary.busy_seconds = in.f64();
  summary.shared_cache_stats = decode_cache_stats(in);
  const std::uint64_t metrics_size = in.u64();
  in.need(metrics_size, "metrics snapshot");
  std::vector<std::uint8_t> metrics(static_cast<std::size_t>(metrics_size));
  if (!metrics.empty()) in.bytes(metrics.data(), metrics.size());
  BinaryReader metrics_in(metrics);
  summary.metrics = decode_metrics_snapshot(metrics_in);
  require_done(metrics_in, "metrics snapshot");
  require_done(in, "shard summary");
  return summary;
}

void append_stream_header(std::vector<std::uint8_t>& out) {
  BinaryWriter writer(out);
  writer.u32(kWireMagic);
  writer.u32(kWireVersion);
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::vector<std::uint8_t>& payload) {
  ESSNS_REQUIRE(payload.size() <= kMaxFramePayload, "frame payload too large");
  BinaryWriter writer(out);
  writer.u32(static_cast<std::uint32_t>(type));
  writer.u64(payload.size());
  writer.bytes(payload.data(), payload.size());
  writer.u32(Crc32::of(payload));
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Reclaim the decoded prefix before growing — a shard streaming hundreds
  // of jobs must not accumulate its whole history in the decoder.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (finished_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (!header_seen_) {
    if (available < 8) return std::nullopt;
    BinaryReader in(buffer_.data() + consumed_, 8);
    const std::uint32_t magic = in.u32();
    if (magic != kWireMagic) throw WireError("bad wire magic");
    const std::uint32_t version = in.u32();
    if (version != kWireVersion)
      throw WireError("wire version mismatch: got " + std::to_string(version) +
                      ", expected " + std::to_string(kWireVersion));
    consumed_ += 8;
    header_seen_ = true;
    return next();
  }

  constexpr std::size_t kFrameHeader = 4 + 8;  // type + length
  if (available < kFrameHeader) return std::nullopt;
  BinaryReader header(buffer_.data() + consumed_, kFrameHeader);
  const std::uint32_t raw_type = header.u32();
  if (raw_type < 1 || raw_type > 4)
    throw WireError("unknown frame type " + std::to_string(raw_type));
  const std::uint64_t length = header.u64();
  if (length > kMaxFramePayload)
    throw WireError("frame payload length out of range");
  const std::uint64_t total = kFrameHeader + length + 4;
  if (available < total) return std::nullopt;

  const std::uint8_t* payload = buffer_.data() + consumed_ + kFrameHeader;
  BinaryReader trailer(payload + length, 4);
  const std::uint32_t expected_crc = trailer.u32();
  const std::uint32_t actual_crc =
      Crc32::of(payload, static_cast<std::size_t>(length));
  if (actual_crc != expected_crc) throw WireError("frame CRC mismatch");

  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(payload, payload + length);
  consumed_ += static_cast<std::size_t>(total);
  if (frame.type == FrameType::kEnd) {
    if (!frame.payload.empty()) throw WireError("end frame carries payload");
    finished_ = true;
  }
  return frame;
}

}  // namespace essns::shard
