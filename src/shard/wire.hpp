// Versioned binary wire format for sharded campaigns (src/shard/runner.hpp)
// — and the seam a future prediction server / multi-host distribution layer
// plugs into: the frames that cross a pipe today can cross a socket
// unchanged tomorrow.
//
// Stream layout (little-endian throughout, common/binary_io.hpp):
//
//   u32 magic      0x45535357 ("WSSE" on the wire)
//   u32 version    kWireVersion; a reader that sees any other value rejects
//                  the whole stream (no best-effort cross-version decoding)
//   frame*         until kEnd
//
// Frame:
//   u32 type       FrameType
//   u64 length     payload bytes (bounded by kMaxFramePayload so a flipped
//                  length bit fails fast instead of waiting for 2^63 bytes)
//   ...  payload
//   u32 crc32      CRC-32 of the payload bytes
//
// The parent sends one kConfig frame to each worker's stdin; workers stream
// one kJobRecord frame per finished job (in completion order — the parent
// merges by global index), then one kShardSummary, then kEnd. A stream that
// ends without kEnd is a crashed shard: every frame before the break is
// still usable because each is independently length-prefixed and
// CRC-checked.
//
// Values round-trip bit for bit: doubles travel as IEEE-754 bit patterns,
// grids as raw row-major cell slabs. Decoders validate every length and
// enum before allocating and throw WireError on anything malformed —
// truncation, bit flips (CRC), unknown frame types, oversized dimensions —
// never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/binary_io.hpp"
#include "obs/metrics.hpp"
#include "service/campaign.hpp"

namespace essns::shard {

inline constexpr std::uint32_t kWireMagic = 0x45535357u;   // "WSSE" in LE bytes
inline constexpr std::uint32_t kWireVersion = 4;
/// Upper bound on one frame's payload. Generous (a 4k x 4k double grid is
/// 128 MiB) but small enough that a corrupted length prefix is rejected
/// immediately.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

enum class FrameType : std::uint32_t {
  kConfig = 1,        ///< parent -> worker: WorkerConfig
  kJobRecord = 2,     ///< worker -> parent: one finished JobRecord
  kShardSummary = 3,  ///< worker -> parent: wall/busy time, cache, metrics
  kEnd = 4,           ///< clean end of stream (empty payload)
};

/// Everything a --shard-worker process needs to run its slice: the catalog
/// spec text (workers re-expand it deterministically and take indices
/// shard_index, shard_index + shard_count, ...), the campaign's JobSpec and
/// ExecOptions whole, and the globally-computed workers_per_job so every
/// job reports the same worker count the single-process split would have.
struct WorkerConfig {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::string catalog_text;
  std::uint64_t seed = 2022;
  std::uint32_t job_concurrency = 1;   ///< this worker's slice concurrency
  std::uint32_t workers_per_job = 1;   ///< forced, campaign-global value
  bool collect_metrics = false;        ///< snapshot the worker's registry
  /// keep_final_maps streams final grids in job frames.
  service::JobSpec spec;
  /// This worker's own: trace_out is the campaign's <path>.shard<k> ("" =
  /// off), metrics_out is "" (the parent writes the merged rollup).
  ess::ExecOptions exec;

  /// Test hook for the killed-shard arms: when >= 0, the worker calls
  /// _exit(kCrashExitCode) after streaming this many job frames.
  std::int32_t debug_crash_after_jobs = -1;
};

/// Exit code of the debug_crash_after_jobs hook, distinguishable from exec
/// failure (127) and real signals in the shard report.
inline constexpr int kCrashExitCode = 42;

/// End-of-slice facts one worker reports: its own wall clock, the summed
/// job time (utilization = busy / (wall * job_concurrency)), the slice's
/// shared-cache stats (kShared only) and the metrics scrape.
struct ShardSummary {
  std::uint32_t shard_index = 0;
  std::uint64_t jobs_run = 0;
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;  ///< sum of per-job elapsed_seconds
  cache::CacheStats shared_cache_stats;
  obs::MetricsSnapshot metrics;
};

// --- payload encoders/decoders (payload bytes only, no frame header) ---
// Decoders take a BinaryReader positioned at the payload start and must
// consume it exactly; trailing bytes are a format error.

std::vector<std::uint8_t> encode_worker_config(const WorkerConfig& config);
WorkerConfig decode_worker_config(BinaryReader& in);

std::vector<std::uint8_t> encode_job_record(const service::JobRecord& record);
service::JobRecord decode_job_record(BinaryReader& in);

std::vector<std::uint8_t> encode_shard_summary(const ShardSummary& summary);
ShardSummary decode_shard_summary(BinaryReader& in);

std::vector<std::uint8_t> encode_metrics_snapshot(
    const obs::MetricsSnapshot& snapshot);
obs::MetricsSnapshot decode_metrics_snapshot(BinaryReader& in);

// --- framing ---

/// Append the 8-byte stream header (magic + version).
void append_stream_header(std::vector<std::uint8_t>& out);

/// Append one frame: type, length, payload, CRC-32(payload).
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::vector<std::uint8_t>& payload);

/// One decoded frame: the type plus its verified payload.
struct Frame {
  FrameType type = FrameType::kEnd;
  std::vector<std::uint8_t> payload;
};

/// Incremental frame decoder for a byte stream arriving in arbitrary
/// chunks (pipe reads). feed() appends bytes; next() returns the next
/// complete, CRC-verified frame or nullopt when more bytes are needed.
/// Throws WireError on a bad magic/version, an unknown frame type, an
/// oversized length, or a CRC mismatch — after which the stream is dead
/// (no resynchronization; the transport below is reliable, so corruption
/// means a broken writer, not line noise).
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size);

  std::optional<Frame> next();

  /// A clean kEnd frame was decoded; EOF before this means the peer died
  /// mid-stream.
  bool finished() const { return finished_; }
  /// Bytes fed but not yet consumed by a complete frame. Nonzero at EOF
  /// means a truncated trailing frame.
  std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  bool header_seen_ = false;
  bool finished_ = false;
};

}  // namespace essns::shard
