#include "shard/runner.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "synth/catalog.hpp"

namespace essns::shard {
namespace {

std::string resolve_exe(const std::string& exe_path) {
  if (!exe_path.empty()) return exe_path;
  char buffer[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) throw IoError("cannot resolve /proc/self/exe");
  return std::string(buffer, static_cast<std::size_t>(n));
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("pipe write failed: ") + std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> read_all(int fd) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("pipe read failed: ") + std::strerror(errno));
    }
    if (n == 0) return bytes;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
}

/// Both sides write into pipes whose peer can die first; a SIGPIPE would
/// kill the writer instead of surfacing EPIPE. Scoped so the launcher does
/// not permanently change the host process's disposition.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &old_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ {};
};

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

std::string exit_description(int wait_status) {
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == 127) return "exit 127 (exec failed)";
    return "exit " + std::to_string(code);
  }
  if (WIFSIGNALED(wait_status))
    return "signal " + std::to_string(WTERMSIG(wait_status));
  return "unknown wait status " + std::to_string(wait_status);
}

/// Parent-side state for one launched worker.
struct ShardProc {
  pid_t pid = -1;
  int out_fd = -1;  ///< read end of the worker's stdout pipe
  FrameDecoder decoder;
  bool eof = false;
  bool summary_received = false;
  ShardSummary summary;
  std::string wire_error;  ///< first decode error; the stream is dead after
};

}  // namespace

bool ShardedCampaignResult::all_shards_clean() const {
  return std::all_of(shards.begin(), shards.end(),
                     [](const ShardReport& s) { return s.clean; });
}

ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignOptions& options) {
  ESSNS_REQUIRE(options.shards >= 1, "shards >= 1");
  const unsigned shard_count = options.shards;
  const service::CampaignConfig& config = options.config;

  // Expand the catalog once in the parent: it defines the merge order and
  // supplies workload identity (name, dims, seed) for jobs a dead shard
  // never reports. Workers re-expand the same text to the same list.
  const synth::CatalogSpec spec =
      synth::parse_catalog_spec(options.catalog_text);
  const std::vector<synth::Workload> workloads = synth::generate_catalog(spec);
  const std::size_t total = workloads.size();

  // The campaign-wide worker split, computed exactly as the single-process
  // scheduler would (the ctor also fail-fasts on a bad method before any
  // fork). Forced into every worker so each job's reported worker count —
  // and so the JSONL bytes — match the unsharded run.
  const unsigned workers_per_job =
      service::CampaignScheduler(config).workers_per_job(total);
  const unsigned per_worker_jobs = std::max(
      1u, (config.job_concurrency + shard_count - 1) / shard_count);

  const std::string exe = resolve_exe(options.exe_path);
  const bool collect_metrics =
      options.collect_metrics || !config.exec.metrics_out.empty();

  SigpipeGuard sigpipe_guard;

  std::vector<ShardProc> procs(shard_count);
  std::vector<std::vector<std::size_t>> assigned(shard_count);
  std::vector<std::uint32_t> owner(total, 0);
  for (unsigned k = 0; k < shard_count; ++k) {
    assigned[k] = synth::shard_slice_indices(total, k, shard_count);
    for (const std::size_t index : assigned[k]) owner[index] = k;
  }

  for (unsigned k = 0; k < shard_count; ++k) {
    WorkerConfig wc;
    wc.shard_index = k;
    wc.shard_count = shard_count;
    wc.catalog_text = options.catalog_text;
    wc.seed = config.seed;
    wc.job_concurrency = per_worker_jobs;
    wc.workers_per_job = workers_per_job;
    wc.collect_metrics = collect_metrics;
    wc.spec = config.spec;
    wc.exec = config.exec;
    wc.exec.metrics_out.clear();
    if (!wc.exec.trace_out.empty())
      wc.exec.trace_out += ".shard" + std::to_string(k);
    wc.debug_crash_after_jobs =
        static_cast<int>(k) == options.debug_crash_shard
            ? options.debug_crash_after_jobs
            : -1;

    int in_pipe[2];   // parent writes config -> worker stdin
    int out_pipe[2];  // worker stdout -> parent reads frames
    if (::pipe(in_pipe) != 0) throw IoError("pipe() failed");
    if (::pipe(out_pipe) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      throw IoError("pipe() failed");
    }
    // Parent-kept ends are close-on-exec so no worker inherits another
    // worker's pipe (a leaked write end would defeat EOF detection).
    set_cloexec(in_pipe[1]);
    set_cloexec(out_pipe[0]);

    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
        ::close(fd);
      throw IoError("fork() failed");
    }
    if (pid == 0) {
      // Worker: stdin/stdout become the pipes; stderr stays inherited so
      // worker diagnostics reach the launcher's terminal.
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::execl(exe.c_str(), exe.c_str(), "--shard-worker",
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    procs[k].pid = pid;
    procs[k].out_fd = out_pipe[0];

    // Ship the config and close stdin; the worker reads to EOF before
    // running. A worker that died already just yields EPIPE here, which the
    // merge loop will report as a crashed shard.
    std::vector<std::uint8_t> handshake;
    append_stream_header(handshake);
    append_frame(handshake, FrameType::kConfig, encode_worker_config(wc));
    append_frame(handshake, FrameType::kEnd, {});
    try {
      write_all(in_pipe[1], handshake.data(), handshake.size());
    } catch (const IoError&) {
      // Leave the death diagnosis to waitpid below.
    }
    ::close(in_pipe[1]);
  }

  // --- merge loop: poll every worker pipe, decode frames incrementally ---
  ShardedCampaignResult sharded;
  service::CampaignResult& result = sharded.campaign;
  result.jobs.resize(total);
  result.job_concurrency = config.job_concurrency;
  result.workers_per_job = workers_per_job;
  result.cache_policy = config.spec.cache_policy;
  if (config.spec.cache_policy == cache::CachePolicy::kShared)
    result.cache_mem_bytes = config.exec.cache_mem_bytes;

  std::vector<bool> received(total, false);
  std::vector<std::size_t> received_per_shard(shard_count, 0);
  const auto start = std::chrono::steady_clock::now();

  const auto handle_frame = [&](unsigned k, const Frame& frame) {
    ShardProc& proc = procs[k];
    switch (frame.type) {
      case FrameType::kJobRecord: {
        BinaryReader in(frame.payload);
        service::JobRecord record = decode_job_record(in);
        if (record.index >= total || owner[record.index] != k ||
            received[record.index])
          throw WireError("shard " + std::to_string(k) +
                          " reported job index " +
                          std::to_string(record.index) +
                          " outside its slice (or twice)");
        received[record.index] = true;
        ++received_per_shard[k];
        const std::size_t index = record.index;
        result.jobs[index] = std::move(record);
        if (config.on_job_done) config.on_job_done(result.jobs[index]);
        break;
      }
      case FrameType::kShardSummary: {
        BinaryReader in(frame.payload);
        proc.summary = decode_shard_summary(in);
        proc.summary_received = true;
        break;
      }
      case FrameType::kEnd:
        break;  // decoder flips finished()
      case FrameType::kConfig:
        throw WireError("unexpected config frame from shard " +
                        std::to_string(k));
    }
  };

  std::size_t open_fds = shard_count;
  std::vector<struct pollfd> poll_fds;
  std::vector<unsigned> poll_shard;
  std::uint8_t chunk[65536];
  while (open_fds > 0) {
    poll_fds.clear();
    poll_shard.clear();
    for (unsigned k = 0; k < shard_count; ++k) {
      if (procs[k].eof) continue;
      poll_fds.push_back({procs[k].out_fd, POLLIN, 0});
      poll_shard.push_back(k);
    }
    const int rc = ::poll(poll_fds.data(),
                          static_cast<nfds_t>(poll_fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("poll() failed: ") + std::strerror(errno));
    }
    for (std::size_t p = 0; p < poll_fds.size(); ++p) {
      if ((poll_fds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const unsigned k = poll_shard[p];
      ShardProc& proc = procs[k];
      const ssize_t n = ::read(proc.out_fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        proc.wire_error =
            std::string("pipe read failed: ") + std::strerror(errno);
      } else if (n > 0) {
        try {
          proc.decoder.feed(chunk, static_cast<std::size_t>(n));
          while (const auto frame = proc.decoder.next())
            handle_frame(k, *frame);
          continue;  // stream still healthy; keep the fd open
        } catch (const WireError& e) {
          proc.wire_error = e.what();
        }
      }
      // EOF, read error or poisoned stream: stop listening to this shard.
      ::close(proc.out_fd);
      proc.out_fd = -1;
      proc.eof = true;
      --open_fds;
    }
  }

  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();

  // --- reap, diagnose, synthesize missing jobs, aggregate summaries ---
  sharded.shards.resize(shard_count);
  for (unsigned k = 0; k < shard_count; ++k) {
    ShardProc& proc = procs[k];
    int wait_status = 0;
    while (::waitpid(proc.pid, &wait_status, 0) < 0 && errno == EINTR) {
    }
    const bool exited_clean =
        WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;

    ShardReport& report = sharded.shards[k];
    report.shard_index = k;
    report.jobs_assigned = assigned[k].size();
    report.jobs_received = received_per_shard[k];
    report.job_concurrency = static_cast<std::uint32_t>(std::min<std::size_t>(
        per_worker_jobs, std::max<std::size_t>(assigned[k].size(), 1)));
    report.summary_received = proc.summary_received;
    if (proc.summary_received) {
      report.wall_seconds = proc.summary.wall_seconds;
      report.busy_seconds = proc.summary.busy_seconds;
    }
    report.clean = exited_clean && proc.decoder.finished() &&
                   proc.wire_error.empty() && proc.summary_received &&
                   report.jobs_received == report.jobs_assigned;
    if (!report.clean) {
      std::string error = exit_description(wait_status);
      if (!proc.decoder.finished() && proc.wire_error.empty())
        error += ", stream ended before end-of-stream frame";
      if (proc.decoder.pending_bytes() > 0)
        error += ", " + std::to_string(proc.decoder.pending_bytes()) +
                 " bytes of a torn trailing frame";
      if (!proc.wire_error.empty()) error += ", " + proc.wire_error;
      report.error = error;
    }

    if (proc.summary_received) {
      cache::CacheStats& merged = result.shared_cache_stats;
      const cache::CacheStats& s = proc.summary.shared_cache_stats;
      merged.hits += s.hits;
      merged.misses += s.misses;
      merged.evictions += s.evictions;
      merged.insertions_rejected += s.insertions_rejected;
      merged.entries += s.entries;
      merged.bytes += s.bytes;
      sharded.metrics.merge(proc.summary.metrics);
    }

    // Every assigned-but-unreported job becomes a failed record with its
    // true deterministic identity (name, dims, seed), so the campaign
    // completes and downstream reports stay index-complete.
    for (const std::size_t index : assigned[k]) {
      if (received[index]) continue;
      service::JobRecord& record = result.jobs[index];
      record.index = index;
      record.workload = workloads[index].name;
      record.rows = workloads[index].environment.rows();
      record.cols = workloads[index].environment.cols();
      record.seed = service::campaign_job_seed(config.seed,
                                               workloads[index].seed, index);
      record.workers = workers_per_job;
      record.status = service::JobStatus::kFailed;
      record.error = "shard " + std::to_string(k) +
                     " died before reporting this job (" + report.error + ")";
      if (config.on_job_done) config.on_job_done(record);
    }
  }

  if (!config.exec.metrics_out.empty())
    sharded.metrics.write_json(config.exec.metrics_out);
  return sharded;
}

int shard_worker_main() {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    // Handshake: stream header + one kConfig frame (+ kEnd) on stdin.
    const std::vector<std::uint8_t> input = read_all(STDIN_FILENO);
    FrameDecoder decoder;
    decoder.feed(input.data(), input.size());
    const auto config_frame = decoder.next();
    if (!config_frame || config_frame->type != FrameType::kConfig)
      throw WireError("worker stdin did not start with a config frame");
    BinaryReader config_in(config_frame->payload);
    const WorkerConfig wc = decode_worker_config(config_in);

    // Re-expand the catalog and take this shard's round-robin slice.
    const synth::CatalogSpec spec = synth::parse_catalog_spec(wc.catalog_text);
    std::vector<synth::Workload> workloads = synth::generate_catalog(spec);
    const std::vector<std::size_t> indices = synth::shard_slice_indices(
        workloads.size(), wc.shard_index, wc.shard_count);
    std::vector<synth::Workload> slice;
    slice.reserve(indices.size());
    for (const std::size_t index : indices)
      slice.push_back(std::move(workloads[index]));

    service::CampaignConfig config;
    config.job_concurrency = wc.job_concurrency;
    config.total_workers = std::max(1u, wc.workers_per_job);
    config.forced_workers_per_job = wc.workers_per_job;
    config.seed = wc.seed;
    config.spec = wc.spec;
    config.exec = wc.exec;
    // Global index of slice job i is shard_index + i * shard_count: the
    // round-robin inverse, from which each job derives its campaign seed.
    config.job_index_offset = wc.shard_index;
    config.job_index_stride = wc.shard_count;

    // Stream each finished job the moment the scheduler reports it (the
    // scheduler serializes on_job_done, so frame writes never interleave).
    std::vector<std::uint8_t> header;
    append_stream_header(header);
    write_all(STDOUT_FILENO, header.data(), header.size());

    double busy_seconds = 0.0;
    int jobs_streamed = 0;
    config.on_job_done = [&](const service::JobRecord& record) {
      if (wc.debug_crash_after_jobs >= 0 &&
          jobs_streamed >= wc.debug_crash_after_jobs)
        _exit(kCrashExitCode);
      std::vector<std::uint8_t> frame;
      append_frame(frame, FrameType::kJobRecord, encode_job_record(record));
      write_all(STDOUT_FILENO, frame.data(), frame.size());
      ++jobs_streamed;
      busy_seconds += record.elapsed_seconds;
    };

    // The worker owns its metrics registry (the scheduler's ObsSession only
    // manages registries it installs itself), scraping it into the summary
    // after every job thread has quiesced.
    obs::MetricsRegistry registry;
    if (wc.collect_metrics) obs::install_metrics_registry(&registry);
    service::CampaignScheduler scheduler(config);
    const service::CampaignResult result = scheduler.run(slice);
    if (wc.collect_metrics) obs::install_metrics_registry(nullptr);

    ShardSummary summary;
    summary.shard_index = wc.shard_index;
    summary.jobs_run = result.jobs.size();
    summary.wall_seconds = result.wall_seconds;
    summary.busy_seconds = busy_seconds;
    summary.shared_cache_stats = result.shared_cache_stats;
    if (wc.collect_metrics) summary.metrics = registry.snapshot();

    std::vector<std::uint8_t> tail;
    append_frame(tail, FrameType::kShardSummary, encode_shard_summary(summary));
    append_frame(tail, FrameType::kEnd, {});
    write_all(STDOUT_FILENO, tail.data(), tail.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace essns::shard
