// Property tests for the shard wire format: randomized roundtrips are
// lossless bit for bit, and every malformed stream — truncated at any byte,
// any byte corrupted, wrong magic/version, bad enum, oversized length — is
// rejected with a clean WireError, never UB.
#include "shard/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/binary_io.hpp"
#include "common/limits.hpp"
#include "common/rng.hpp"

namespace essns::shard {
namespace {

TEST(BinaryIo, PrimitivesRoundTripLittleEndian) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u8(0xAB);
  out.u16(0x1234);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.i64(-1234567890123456789ll);
  out.f64(-0.1);
  out.str("wire");

  // Spot-check the layout is little-endian on the wire.
  EXPECT_EQ(bytes[1], 0x34);
  EXPECT_EQ(bytes[2], 0x12);

  BinaryReader in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0x1234);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.i64(), -1234567890123456789ll);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_EQ(in.str(), "wire");
  EXPECT_TRUE(in.done());
}

TEST(BinaryIo, DoublesRoundTripByBitPattern) {
  const double specials[] = {0.0, -0.0, 1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (const double value : specials) {
    std::vector<std::uint8_t> bytes;
    BinaryWriter out(bytes);
    out.f64(value);
    BinaryReader in(bytes);
    const double back = in.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value));
  }
}

TEST(BinaryIo, EveryTruncationThrowsWireError) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(7);
  out.str("hello");
  out.f64(2.5);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader in(bytes.data(), cut);
    EXPECT_THROW(
        {
          (void)in.u32();
          (void)in.str();
          (void)in.f64();
        },
        WireError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(BinaryIo, StringLengthPrefixValidatedBeforeAllocation) {
  // A length prefix claiming 2^63 bytes must fail the bounds check, not
  // attempt the allocation.
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u64(std::uint64_t{1} << 63);
  BinaryReader in(bytes);
  EXPECT_THROW((void)in.str(), WireError);
}

TEST(BinaryIo, Crc32MatchesKnownVector) {
  const char* text = "123456789";
  EXPECT_EQ(Crc32::of(reinterpret_cast<const std::uint8_t*>(text), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32::of(nullptr, 0), 0u);
}

// --- randomized payload roundtrips ---

service::JobRecord random_record(Rng& rng, bool with_maps) {
  service::JobRecord record;
  record.index = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  record.workload = "wl-" + std::to_string(rng.uniform_int(0, 999));
  record.rows = static_cast<int>(rng.uniform_int(1, 64));
  record.cols = static_cast<int>(rng.uniform_int(1, 64));
  record.seed = rng();
  record.workers = static_cast<unsigned>(rng.uniform_int(1, 16));
  record.status = rng.uniform() < 0.8 ? service::JobStatus::kSucceeded
                                      : service::JobStatus::kFailed;
  if (record.status == service::JobStatus::kFailed)
    record.error = "boom: \"quoted\"\nnewline\tand\\slash";
  record.elapsed_seconds = rng.uniform(0.0, 100.0);
  record.result.optimizer_name = "ESS-NS";
  const int steps = static_cast<int>(rng.uniform_int(0, 6));
  for (int s = 0; s < steps; ++s) {
    ess::StepReport step;
    step.step = s + 1;
    step.kign = rng.uniform(0.0, 2.0);
    step.calibration_fitness = rng.uniform();
    step.best_os_fitness = rng.uniform();
    step.prediction_quality = rng.uniform();
    step.os_evaluations = static_cast<std::size_t>(rng.uniform_int(0, 10000));
    step.os_generations = static_cast<int>(rng.uniform_int(0, 50));
    step.elapsed_seconds = rng.uniform(0.0, 10.0);
    step.solution_count = static_cast<std::size_t>(rng.uniform_int(0, 64));
    step.os_seconds = rng.uniform(0.0, 5.0);
    step.ss_seconds = rng.uniform(0.0, 5.0);
    step.cs_seconds = rng.uniform(0.0, 5.0);
    step.ps_seconds = rng.uniform(0.0, 5.0);
    step.cache_hits = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    step.cache_misses = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    step.cache_evictions = static_cast<std::size_t>(rng.uniform_int(0, 100));
    step.cache_insertions_rejected =
        static_cast<std::size_t>(rng.uniform_int(0, 100));
    step.cache_entries = static_cast<std::size_t>(rng.uniform_int(0, 100));
    step.cache_bytes = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
    step.batch_dedup_hits = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    record.result.steps.push_back(step);
  }
  if (with_maps) {
    record.final_probability = Grid<double>(record.rows, record.cols);
    record.final_prediction = Grid<std::uint8_t>(record.rows, record.cols);
    for (auto& cell : record.final_probability) cell = rng.uniform();
    for (auto& cell : record.final_prediction)
      cell = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  }
  return record;
}

void expect_equal(const service::JobRecord& a, const service::JobRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.elapsed_seconds),
            std::bit_cast<std::uint64_t>(b.elapsed_seconds));
  EXPECT_EQ(a.result.optimizer_name, b.result.optimizer_name);
  ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
  for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
    const ess::StepReport& x = a.result.steps[s];
    const ess::StepReport& y = b.result.steps[s];
    EXPECT_EQ(x.step, y.step);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.kign),
              std::bit_cast<std::uint64_t>(y.kign));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.prediction_quality),
              std::bit_cast<std::uint64_t>(y.prediction_quality));
    EXPECT_EQ(x.os_evaluations, y.os_evaluations);
    EXPECT_EQ(x.cache_hits, y.cache_hits);
    EXPECT_EQ(x.cache_bytes, y.cache_bytes);
    EXPECT_EQ(x.batch_dedup_hits, y.batch_dedup_hits);
  }
  EXPECT_EQ(a.final_probability, b.final_probability);
  EXPECT_EQ(a.final_prediction, b.final_prediction);
}

TEST(WireFormat, JobRecordRoundTripsRandomizedPayloads) {
  Rng rng(2022);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const service::JobRecord record =
        random_record(rng, /*with_maps=*/iteration % 2 == 0);
    const std::vector<std::uint8_t> payload = encode_job_record(record);
    BinaryReader in(payload);
    const service::JobRecord back = decode_job_record(in);
    expect_equal(record, back);
  }
}

TEST(WireFormat, JobRecordEveryTruncationRejected) {
  Rng rng(7);
  const service::JobRecord record = random_record(rng, /*with_maps=*/true);
  const std::vector<std::uint8_t> payload = encode_job_record(record);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    BinaryReader in(payload.data(), cut);
    EXPECT_THROW((void)decode_job_record(in), WireError)
        << "prefix of " << cut << "/" << payload.size() << " bytes accepted";
  }
}

TEST(WireFormat, JobRecordTrailingBytesRejected) {
  Rng rng(9);
  std::vector<std::uint8_t> payload =
      encode_job_record(random_record(rng, false));
  payload.push_back(0);
  BinaryReader in(payload);
  EXPECT_THROW((void)decode_job_record(in), WireError);
}

TEST(WireFormat, JobRecordBadStatusEnumRejected) {
  service::JobRecord record;
  record.workload = "wl";
  std::vector<std::uint8_t> payload = encode_job_record(record);
  // Locate the status byte from the fixed layout: index u64, workload
  // (u64 prefix + 2 bytes), rows/cols i32, seed u64, workers u32.
  const std::size_t status_at = 8 + (8 + 2) + 4 + 4 + 8 + 4;
  ASSERT_LT(status_at, payload.size());
  payload[status_at] = 7;
  BinaryReader in(payload);
  EXPECT_THROW((void)decode_job_record(in), WireError);
}

TEST(WireFormat, OversizedGridDimensionsRejectedBeforeAllocation) {
  // Hand-build a record payload whose final_probability grid claims
  // 2^30 x 2^30 cells: the decoder must throw on the dimensions, not try to
  // allocate exabytes.
  std::vector<std::uint8_t> payload;
  BinaryWriter out(payload);
  out.u64(0);             // index
  out.str("wl");          // workload
  out.i32(4);             // rows
  out.i32(4);             // cols
  out.u64(1);             // seed
  out.u32(1);             // workers
  out.u8(1);              // status
  out.str("");            // error
  out.f64(0.0);           // elapsed
  out.str("opt");         // optimizer_name
  out.u64(0);             // step count
  out.u8(1);              // final_probability present
  out.i32(1 << 30);       // rows: insane
  out.i32(1 << 30);       // cols: insane
  BinaryReader in(payload);
  EXPECT_THROW((void)decode_job_record(in), WireError);
}

/// A worker config with every field, JobSpec and ExecOptions ones included,
/// away from its default.
WorkerConfig non_default_worker_config() {
  WorkerConfig config;
  config.shard_index = 2;
  config.shard_count = 5;
  config.catalog_text = "sizes=32\nseeds=3\n# comment\n";
  config.seed = 0xFEEDFACECAFEBEEFull;
  config.job_concurrency = 3;
  config.workers_per_job = 4;
  config.collect_metrics = true;
  config.spec.method = "essim-de-tuned";
  config.spec.generations = 7;
  config.spec.fitness_threshold = 0.875;
  config.spec.population = 24;
  config.spec.offspring = 12;
  config.spec.novelty_k = 5;
  config.spec.islands = 2;
  config.spec.max_solution_maps = 33;
  config.spec.cache_policy = cache::CachePolicy::kShared;
  config.spec.keep_final_maps = true;
  config.exec.cache_mem_bytes = 123456789;
  config.exec.simd_mode = simd::Mode::kScalar;
  config.exec.numa_mode = parallel::NumaMode::kOn;
  config.exec.trace_out = "/tmp/trace.json";
  config.exec.metrics_out = "/tmp/metrics.json";
  config.debug_crash_after_jobs = 2;
  return config;
}

TEST(WireFormat, WorkerConfigRoundTrips) {
  const WorkerConfig config = non_default_worker_config();
  const WorkerConfig defaults;
  EXPECT_NE(config.spec.method, defaults.spec.method);
  EXPECT_NE(config.spec.generations, defaults.spec.generations);
  EXPECT_NE(config.spec.fitness_threshold, defaults.spec.fitness_threshold);
  EXPECT_NE(config.spec.population, defaults.spec.population);
  EXPECT_NE(config.spec.offspring, defaults.spec.offspring);
  EXPECT_NE(config.spec.novelty_k, defaults.spec.novelty_k);
  EXPECT_NE(config.spec.islands, defaults.spec.islands);
  EXPECT_NE(config.spec.max_solution_maps, defaults.spec.max_solution_maps);
  EXPECT_NE(config.spec.cache_policy, defaults.spec.cache_policy);
  EXPECT_NE(config.spec.keep_final_maps, defaults.spec.keep_final_maps);
  EXPECT_NE(config.exec.cache_mem_bytes, defaults.exec.cache_mem_bytes);
  EXPECT_NE(config.exec.simd_mode, defaults.exec.simd_mode);
  EXPECT_NE(config.exec.numa_mode, defaults.exec.numa_mode);
  EXPECT_NE(config.exec.trace_out, defaults.exec.trace_out);
  EXPECT_NE(config.exec.metrics_out, defaults.exec.metrics_out);

  const std::vector<std::uint8_t> payload = encode_worker_config(config);
  BinaryReader in(payload);
  const WorkerConfig back = decode_worker_config(in);
  EXPECT_EQ(back.shard_index, config.shard_index);
  EXPECT_EQ(back.shard_count, config.shard_count);
  EXPECT_EQ(back.catalog_text, config.catalog_text);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.job_concurrency, config.job_concurrency);
  EXPECT_EQ(back.workers_per_job, config.workers_per_job);
  EXPECT_EQ(back.collect_metrics, config.collect_metrics);
  EXPECT_EQ(back.spec.method, config.spec.method);
  EXPECT_EQ(back.spec.generations, config.spec.generations);
  EXPECT_EQ(back.spec.fitness_threshold, config.spec.fitness_threshold);
  EXPECT_EQ(back.spec.population, config.spec.population);
  EXPECT_EQ(back.spec.offspring, config.spec.offspring);
  EXPECT_EQ(back.spec.novelty_k, config.spec.novelty_k);
  EXPECT_EQ(back.spec.islands, config.spec.islands);
  EXPECT_EQ(back.spec.max_solution_maps, config.spec.max_solution_maps);
  EXPECT_EQ(back.spec.cache_policy, config.spec.cache_policy);
  EXPECT_EQ(back.spec.keep_final_maps, config.spec.keep_final_maps);
  EXPECT_EQ(back.exec.cache_mem_bytes, config.exec.cache_mem_bytes);
  EXPECT_EQ(back.exec.simd_mode, config.exec.simd_mode);
  EXPECT_EQ(back.exec.numa_mode, config.exec.numa_mode);
  EXPECT_EQ(back.exec.trace_out, config.exec.trace_out);
  EXPECT_EQ(back.exec.metrics_out, config.exec.metrics_out);
  EXPECT_EQ(back.debug_crash_after_jobs, config.debug_crash_after_jobs);
}

TEST(WireFormat, WorkerConfigEveryTruncationRejected) {
  const std::vector<std::uint8_t> payload =
      encode_worker_config(non_default_worker_config());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    BinaryReader in(payload.data(), cut);
    EXPECT_THROW((void)decode_worker_config(in), WireError)
        << "prefix of " << cut << "/" << payload.size() << " bytes accepted";
  }
}

TEST(WireFormat, WorkerConfigShardIndexOutOfRangeRejected) {
  WorkerConfig config;
  config.shard_index = 3;
  config.shard_count = 3;  // index must be < count
  const std::vector<std::uint8_t> payload = encode_worker_config(config);
  BinaryReader in(payload);
  EXPECT_THROW((void)decode_worker_config(in), WireError);
}

TEST(WireFormat, WorkerConfigCountsPastTheSharedCapsRejected) {
  // A config frame's counts obey the bounds of every other input surface
  // (common/limits.hpp): each decodes at its floor and cap and is rejected
  // one past either (decode only: no worker starts).
  const auto decodes = [](const WorkerConfig& config) {
    const std::vector<std::uint8_t> payload = encode_worker_config(config);
    BinaryReader in(payload);
    try {
      (void)decode_worker_config(in);
      return true;
    } catch (const WireError&) {
      return false;
    }
  };
  const auto check = [&](auto&& field, std::int64_t cap, std::int64_t floor) {
    for (const std::int64_t value : {floor - 1, floor, cap, cap + 1}) {
      WorkerConfig config;
      auto& member = field(config);
      member = static_cast<std::remove_reference_t<decltype(member)>>(value);
      EXPECT_EQ(decodes(config), value >= floor && value <= cap)
          << "cap " << cap << " value " << value;
    }
  };
  check([](WorkerConfig& c) -> auto& { return c.shard_count; },
        limits::kMaxShards, 1);
  check([](WorkerConfig& c) -> auto& { return c.job_concurrency; },
        limits::kMaxJobs, 1);
  check([](WorkerConfig& c) -> auto& { return c.workers_per_job; },
        limits::kMaxWorkers, 1);
  check([](WorkerConfig& c) -> auto& { return c.spec.generations; },
        limits::kMaxGenerations, 1);
  check([](WorkerConfig& c) -> auto& { return c.spec.population; },
        limits::kMaxPopulation, 2);
  check([](WorkerConfig& c) -> auto& { return c.spec.offspring; },
        limits::kMaxPopulation, 1);
  check([](WorkerConfig& c) -> auto& { return c.spec.novelty_k; },
        limits::kMaxNoveltyK, 0);
  check([](WorkerConfig& c) -> auto& { return c.spec.islands; },
        limits::kMaxIslands, 1);
}

TEST(WireFormat, MetricsSnapshotRoundTripsSparseBuckets) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["campaign.jobs"] = 42;
  snapshot.counters["sweep.cells"] = 123456789;
  obs::HistogramSnapshot histogram;
  histogram.count = 3;
  histogram.sum = 6.5;
  histogram.min = 0.5;
  histogram.max = 4.0;
  histogram.buckets.assign(obs::Histogram::kBucketCount, 0);
  histogram.buckets[10] = 1;
  histogram.buckets[200] = 2;
  snapshot.histograms["campaign.job_seconds"] = histogram;

  const std::vector<std::uint8_t> payload = encode_metrics_snapshot(snapshot);
  BinaryReader in(payload);
  const obs::MetricsSnapshot back = decode_metrics_snapshot(in);
  EXPECT_EQ(back.counters, snapshot.counters);
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramSnapshot& h = back.histograms.at("campaign.job_seconds");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 6.5);
  EXPECT_EQ(h.min, 0.5);
  EXPECT_EQ(h.max, 4.0);
  ASSERT_EQ(h.buckets.size(), obs::Histogram::kBucketCount);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.buckets[200], 2u);
  // Format identity: the decoded snapshot renders the same JSON document.
  EXPECT_EQ(back.json(), snapshot.json());
}

TEST(WireFormat, MetricsSnapshotBucketIndexOutOfRangeRejected) {
  std::vector<std::uint8_t> payload;
  BinaryWriter out(payload);
  out.u64(0);  // no counters
  out.u64(1);  // one histogram
  out.str("h");
  out.u64(1);    // count
  out.f64(1.0);  // sum
  out.f64(1.0);  // min
  out.f64(1.0);  // max
  out.u64(1);    // one nonzero bucket...
  out.u32(static_cast<std::uint32_t>(obs::Histogram::kBucketCount));  // bad
  out.u64(1);
  BinaryReader in(payload);
  EXPECT_THROW((void)decode_metrics_snapshot(in), WireError);
}

TEST(WireFormat, ShardSummaryRoundTrips) {
  ShardSummary summary;
  summary.shard_index = 1;
  summary.jobs_run = 17;
  summary.wall_seconds = 3.25;
  summary.busy_seconds = 5.5;
  summary.shared_cache_stats.hits = 10;
  summary.shared_cache_stats.misses = 4;
  summary.shared_cache_stats.evictions = 1;
  summary.shared_cache_stats.insertions_rejected = 2;
  summary.shared_cache_stats.entries = 3;
  summary.shared_cache_stats.bytes = 4096;
  summary.metrics.counters["campaign.jobs"] = 17;

  const std::vector<std::uint8_t> payload = encode_shard_summary(summary);
  BinaryReader in(payload);
  const ShardSummary back = decode_shard_summary(in);
  EXPECT_EQ(back.shard_index, summary.shard_index);
  EXPECT_EQ(back.jobs_run, summary.jobs_run);
  EXPECT_EQ(back.wall_seconds, summary.wall_seconds);
  EXPECT_EQ(back.busy_seconds, summary.busy_seconds);
  EXPECT_EQ(back.shared_cache_stats.hits, 10u);
  EXPECT_EQ(back.shared_cache_stats.bytes, 4096u);
  EXPECT_EQ(back.metrics.counters.at("campaign.jobs"), 17u);
}

// --- framing ---

std::vector<std::uint8_t> sample_stream(Rng& rng) {
  std::vector<std::uint8_t> stream;
  append_stream_header(stream);
  append_frame(stream, FrameType::kJobRecord,
               encode_job_record(random_record(rng, false)));
  ShardSummary summary;
  summary.shard_index = 0;
  summary.jobs_run = 1;
  append_frame(stream, FrameType::kShardSummary, encode_shard_summary(summary));
  append_frame(stream, FrameType::kEnd, {});
  return stream;
}

std::vector<Frame> decode_all(const std::vector<std::uint8_t>& stream,
                              std::size_t chunk_size) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t at = 0; at < stream.size(); at += chunk_size) {
    const std::size_t n = std::min(chunk_size, stream.size() - at);
    decoder.feed(stream.data() + at, n);
    while (const auto frame = decoder.next()) frames.push_back(*frame);
  }
  EXPECT_TRUE(decoder.finished());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  return frames;
}

TEST(FrameDecoder, DecodesStreamFedOneByteAtATime) {
  Rng rng(5);
  const std::vector<std::uint8_t> stream = sample_stream(rng);
  const std::vector<Frame> whole = decode_all(stream, stream.size());
  const std::vector<Frame> bytewise = decode_all(stream, 1);
  ASSERT_EQ(whole.size(), 3u);
  ASSERT_EQ(bytewise.size(), 3u);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].type, bytewise[i].type);
    EXPECT_EQ(whole[i].payload, bytewise[i].payload);
  }
  EXPECT_EQ(whole[0].type, FrameType::kJobRecord);
  EXPECT_EQ(whole[2].type, FrameType::kEnd);
}

TEST(FrameDecoder, TruncatedStreamNeverFinishes) {
  Rng rng(6);
  const std::vector<std::uint8_t> stream = sample_stream(rng);
  for (std::size_t cut = 0; cut < stream.size(); cut += 7) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), cut);
    try {
      while (decoder.next()) {
      }
      EXPECT_FALSE(decoder.finished())
          << "finished from a " << cut << "-byte prefix of "
          << stream.size();
    } catch (const WireError&) {
      // Also acceptable: the cut landed inside a header/CRC and the partial
      // frame was rejected outright.
    }
  }
}

TEST(FrameDecoder, EveryBitFlipIsRejectedOrChangesNothingSilently) {
  Rng rng(8);
  const std::vector<std::uint8_t> original = sample_stream(rng);
  const std::vector<Frame> expected = decode_all(original, original.size());
  for (std::size_t at = 0; at < original.size(); ++at) {
    std::vector<std::uint8_t> corrupted = original;
    corrupted[at] ^= 0x01;
    FrameDecoder decoder;
    std::vector<Frame> frames;
    bool rejected = false;
    try {
      decoder.feed(corrupted.data(), corrupted.size());
      while (const auto frame = decoder.next()) frames.push_back(*frame);
    } catch (const WireError&) {
      rejected = true;  // the clean failure mode: magic/version/type/
                        // length/CRC check caught the flip
    }
    if (rejected) continue;
    // Not throwing is only acceptable when the stream visibly differs from
    // the original decode (e.g. a flipped frame-type bit yielding a
    // CRC-valid frame of another type) or is visibly incomplete — never a
    // silent bit-perfect reproduction of the original.
    bool same = decoder.finished() && frames.size() == expected.size();
    if (same)
      for (std::size_t i = 0; i < frames.size(); ++i)
        if (frames[i].type != expected[i].type ||
            frames[i].payload != expected[i].payload)
          same = false;
    EXPECT_FALSE(same) << "flip at byte " << at
                       << " reproduced the original stream";
  }
}

TEST(FrameDecoder, BadMagicRejected) {
  std::vector<std::uint8_t> stream;
  append_stream_header(stream);
  stream[0] ^= 0xFF;
  append_frame(stream, FrameType::kEnd, {});
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_THROW((void)decoder.next(), WireError);
}

TEST(FrameDecoder, VersionMismatchRejected) {
  std::vector<std::uint8_t> stream;
  BinaryWriter out(stream);
  out.u32(kWireMagic);
  out.u32(kWireVersion + 1);
  append_frame(stream, FrameType::kEnd, {});
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  try {
    (void)decoder.next();
    FAIL() << "future wire version accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(FrameDecoder, OversizedFrameLengthRejected) {
  std::vector<std::uint8_t> stream;
  append_stream_header(stream);
  BinaryWriter out(stream);
  out.u32(static_cast<std::uint32_t>(FrameType::kJobRecord));
  out.u64(kMaxFramePayload + 1);
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_THROW((void)decoder.next(), WireError);
}

TEST(FrameDecoder, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> stream;
  append_stream_header(stream);
  BinaryWriter out(stream);
  out.u32(99);
  out.u64(0);
  out.u32(Crc32::of(nullptr, 0));
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_THROW((void)decoder.next(), WireError);
}

}  // namespace
}  // namespace essns::shard
