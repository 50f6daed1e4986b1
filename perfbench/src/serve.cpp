// serve_tracked: the shipped `essns_cli serve --jobs 2` driven over loopback
// TCP by one client thread on 4 pipelined connections. Arrivals are open
// loop: a seeded Poisson schedule at one fixed offered rate, mixing new-fire
// predicts, same-horizon repredicts and one-step horizon extensions of
// tracked fires.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "synth/catalog.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

using namespace essns;

constexpr int kJobSlots = 2;           ///< --jobs of the server under test
constexpr int kConnections = 4;
constexpr int kSetupRepeats = 21;
/// Offered load, requests per second. The server's default 256 MiB shared
/// cache holds about 38k entries; at 12/s a 20 s run misses 80k-110k times,
/// evictions reach tracked fires and warm requests turn cold, so the mean
/// latency moved with the seed and between runs. At 7/s a run misses about
/// as often as the cache holds, and the 2 job slots are about a quarter
/// busy (perfbench/README.md).
constexpr double kOfferedRate = 7.0;
/// Latency limit L of slo_ratio, from a request's scheduled send time.
constexpr double kSloLimit_s = 0.5;
/// The run is invalid when the generator sends a tenth of its requests
/// (gen.lag_p90_s) later than this share of L after their scheduled time.
constexpr double kLagLimitShare = 0.1;
/// A fire is only re-targeted this long after its last scheduled request,
/// so each arrival finds its fire idle (its last answer in) unless the
/// server stalls; a re-prediction that overlaps its fire's cold predict
/// recomputes what the cache would have served.
constexpr double kFireSpacing_s = 1.0;
constexpr std::size_t kActiveFires = 12;
constexpr int kBaseHorizon = 4;  ///< serve's default steps
constexpr int kMaxHorizon = 6;
constexpr double kDrainTimeout_s = 60.0;
constexpr std::size_t kReplaySweeps = 6000;
/// Fire seeds come from this fixed pool, not from the run seed: the cost of
/// one fire varies several-fold with its terrain and hidden scenario, and
/// fresh fires per run seed moved the latency quantiles by a quarter
/// between seeds. Each deck deal uses the next pool, so fires stay distinct
/// within a run.
constexpr std::uint64_t kFirePool = 0x5e7e5eed;
/// The server's seed=, fixed for the same reason: it seeds every job's
/// optimizer, and the evaluations and cache hits a fire costs move with it.
constexpr std::uint64_t kServerSeed = 0x5e4e5eed;

enum class Kind { kCold, kWarm, kExtend };

struct Fire {
  std::string id;
  synth::WorkloadRequest request;  ///< steps = the fire's base horizon
  int horizon = kBaseHorizon;
  double last_at_s = 0.0;
};

struct Arrival {
  double at_s = 0.0;  ///< scheduled send time from the run's start
  Kind kind = Kind::kCold;
  std::size_t fire = 0;
  int steps = kBaseHorizon;
  std::string line;
};

struct Schedule {
  std::vector<Fire> fires;
  std::vector<Arrival> arrivals;
};

/// The whole request sequence, a pure function of the seed. Arrivals are a
/// Poisson process at kOfferedRate conditioned on its count in every
/// second: round(rate) uniform times per second, sorted, so the queueing of
/// one seed does not hinge on a few multi-second clumps. Kinds come in
/// shuffled blocks of four (predict, 2 x repredict, extend). Predicts deal
/// the 24 (terrain, weather, ignition) cells from a shuffled deck, plains
/// and hills alternating; extends deal terrains from a shuffled (plains,
/// hills) deck. So every seed offers the same mix and differs in order,
/// timing and which fires of the pool appear. A repredict or extend goes to
/// the least recently requested of the last kActiveFires fires (of the
/// dealt terrain, for an extend) that has been idle for kFireSpacing_s;
/// when none is, the arrival becomes a predict.
Schedule make_schedule(std::uint64_t seed, double seconds) {
  struct Cell {
    const char* terrain;
    const char* weather;
    const char* ignition;
    std::uint64_t fire_seed = 0;
  };
  std::vector<Cell> cells;
  for (const char* terrain : {"plains", "hills"})
    for (const char* weather : {"steady", "wind_shift", "diurnal"})
      for (const char* ignition : {"center", "offset", "edge", "corner"})
        cells.push_back({terrain, weather, ignition});
  std::uint64_t deals = 0;
  Stream stream{mix_seed(seed, 3)};
  std::vector<double> times;
  for (double begin = 0.0; begin < seconds; begin += 1.0) {
    const double width = std::min(1.0, seconds - begin);
    for (long i = std::lround(kOfferedRate * width); i > 0; --i)
      times.push_back(begin + stream.uniform() * width);
  }
  std::sort(times.begin(), times.end());

  Schedule schedule;
  std::deque<std::size_t> active;
  std::vector<Kind> kinds;
  std::vector<Cell> deck;
  std::vector<synth::TerrainFamily> extend_deck;
  for (const double at : times) {
    if (kinds.empty()) {
      kinds = {Kind::kCold, Kind::kWarm, Kind::kWarm, Kind::kExtend};
      stream.shuffle(kinds);
    }
    Kind kind = kinds.back();
    kinds.pop_back();
    std::size_t target = schedule.fires.size();
    if (kind == Kind::kExtend && extend_deck.empty()) {
      extend_deck = {synth::TerrainFamily::kPlains,
                     synth::TerrainFamily::kHills};
      stream.shuffle(extend_deck);
    }
    if (kind != Kind::kCold) {
      for (std::size_t index : active) {
        const Fire& fire = schedule.fires[index];
        if (fire.last_at_s > at - kFireSpacing_s) continue;
        if (kind == Kind::kExtend &&
            (fire.horizon >= kMaxHorizon ||
             fire.request.terrain != extend_deck.back()))
          continue;
        if (target == schedule.fires.size() ||
            fire.last_at_s < schedule.fires[target].last_at_s)
          target = index;
      }
      if (target == schedule.fires.size()) {
        kind = Kind::kCold;
      } else if (kind == Kind::kExtend) {
        extend_deck.pop_back();
      }
    }
    Arrival arrival;
    arrival.at_s = at;
    arrival.kind = kind;
    if (kind == Kind::kCold) {
      if (deck.empty()) {
        deck = cells;
        for (std::size_t i = 0; i < deck.size(); ++i)
          deck[i].fire_seed = mix_seed(kFirePool + deals, i) >> 1;
        ++deals;
        stream.shuffle(deck);
        // Alternate the terrains, so every run's predicts split evenly
        // between plains and hills fires (a cold hills fire costs about
        // four plains ones).
        std::stable_partition(deck.begin(), deck.end(), [](const Cell& cell) {
          return std::string_view(cell.terrain) == "plains";
        });
        std::vector<Cell> alternating;
        const std::size_t half = deck.size() / 2;
        for (std::size_t i = 0; i < half; ++i) {
          alternating.push_back(deck[i]);
          alternating.push_back(deck[half + i]);
        }
        deck = std::move(alternating);
      }
      const auto [terrain, weather, ignition, fire_seed] = deck.back();
      deck.pop_back();
      Fire fire;
      fire.id = std::string("f") + std::to_string(schedule.fires.size());
      fire.request.terrain = *synth::parse_terrain_family(terrain);
      fire.request.weather = *synth::parse_weather_regime(weather);
      fire.request.ignition = *synth::parse_ignition_pattern(ignition);
      fire.request.seed = fire_seed;
      fire.request.steps = kBaseHorizon;
      arrival.line = "predict id=" + fire.id + " terrain=" + terrain +
                     " weather=" + weather + " ignition=" + ignition +
                     " seed=" + std::to_string(fire.request.seed);
      schedule.fires.push_back(fire);
      active.push_back(target);
      if (active.size() > kActiveFires) active.pop_front();
    } else {
      Fire& fire = schedule.fires[target];
      if (kind == Kind::kExtend) ++fire.horizon;
      arrival.line = "repredict id=" + fire.id +
                     " steps=" + std::to_string(fire.horizon);
    }
    Fire& fire = schedule.fires[target];
    fire.last_at_s = at;
    arrival.fire = target;
    arrival.steps = fire.horizon;
    schedule.arrivals.push_back(std::move(arrival));
  }
  return schedule;
}

/// One `essns_cli serve` child process. The child dies with this process.
class ServerProcess {
 public:
  ServerProcess(const Options& options, std::uint64_t server_seed)
      : port_file_(options.run_dir + "/serve-" + std::to_string(getpid()) +
                   ".port") {
    std::remove(port_file_.c_str());
    const std::string log = options.run_dir + "/serve.log";
    std::vector<std::string> args = {options.essns_cli, "serve", "--port", "0",
                                     "--port-file", port_file_, "--jobs",
                                     std::to_string(kJobSlots),
                                     "seed=" + std::to_string(server_seed)};
    pid_ = fork();
    if (pid_ < 0) throw IoError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    std::remove(port_file_.c_str());
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Wait for the port file, then for a `ping` answer. Returns the port.
  int wait_ready(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw IoError("essns_cli serve exited during start-up");
      }
      std::ifstream in(port_file_);
      std::string text;
      if (std::getline(in, text) && in.good() && !text.empty()) {
        port_ = std::stoi(text);
        serve::LineClient client("127.0.0.1", port_, 10.0);
        if (client.request("ping") != "ok pong")
          throw IoError("essns_cli serve did not answer ping");
        return port_;
      }
      usleep(200);
    }
    throw IoError("essns_cli serve did not start listening");
  }

  pid_t pid() const { return pid_; }

  /// `shutdown`, then wait for the process to exit.
  void shutdown() {
    {
      serve::LineClient client("127.0.0.1", port_, 30.0);
      client.request("shutdown");
    }
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(1000);
    }
    throw IoError("essns_cli serve did not exit after shutdown");
  }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

struct Outcome {
  double sent_s = -1.0;  ///< actual send time from the run's start
  double done_s = -1.0;  ///< response line read
  std::string line;
  double server_s = 0.0;  ///< the response's seconds= (engine queue + run)
};

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("socket failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    close(fd);
    throw IoError("connect to essns_cli serve failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string token_after(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(" " + key);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + 1 + key.size();
  return line.substr(start, line.find(' ', start) - start);
}

/// Send every arrival at its scheduled time and collect the responses.
/// Returns the in-flight conflicts met (arrivals whose fire was busy).
std::size_t drive(int port, const Schedule& schedule,
                  std::vector<Outcome>& outcomes) {
  const std::vector<Arrival>& arrivals = schedule.arrivals;
  outcomes.assign(arrivals.size(), Outcome{});
  std::vector<pollfd> fds;
  std::vector<std::string> buffers(kConnections);
  // Per connection, per fire id: arrivals awaiting a response, in order.
  std::vector<std::map<std::string, std::deque<std::size_t>>> pending(
      kConnections);
  std::vector<int> busy(schedule.fires.size(), 0);
  struct Closer {
    std::vector<pollfd>& fds;
    ~Closer() {
      for (const pollfd& fd : fds) close(fd.fd);
    }
  } closer{fds};
  for (int c = 0; c < kConnections; ++c)
    fds.push_back({connect_loopback(port), POLLIN, 0});

  std::size_t conflicts = 0;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const double start = now_s() + 0.02;
  const double give_up =
      (arrivals.empty() ? 0.0 : arrivals.back().at_s) + kDrainTimeout_s;
  while (next < arrivals.size() || outstanding > 0) {
    double now = now_s() - start;
    if (now > give_up) break;
    while (next < arrivals.size() && arrivals[next].at_s <= now) {
      const Arrival& arrival = arrivals[next];
      const auto c = arrival.fire % kConnections;
      const std::string data = arrival.line + "\n";
      if (send(fds[c].fd, data.data(), data.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(data.size()))
        throw IoError("send to essns_cli serve failed");
      outcomes[next].sent_s = now;
      if (busy[arrival.fire]++ > 0) ++conflicts;
      pending[c][schedule.fires[arrival.fire].id].push_back(next);
      ++outstanding;
      ++next;
      now = now_s() - start;
    }
    const double wait =
        next < arrivals.size() ? std::max(0.0, arrivals[next].at_s - now) : 0.1;
    const timespec timeout{static_cast<time_t>(wait),
                           static_cast<long>((wait - std::floor(wait)) * 1e9)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (int c = 0; c < kConnections; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[65536];
      const ssize_t n = recv(fds[c].fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) throw IoError("essns_cli serve closed a connection");
      const double received = now_s() - start;
      buffers[c].append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = buffers[c].find('\n')) != std::string::npos) {
        std::string line = buffers[c].substr(0, eol);
        buffers[c].erase(0, eol + 1);
        auto& waiting = pending[c][token_after(line, "id=")];
        if (waiting.empty()) continue;  // not a response to a prediction
        const std::size_t index = waiting.front();
        waiting.pop_front();
        --outstanding;
        --busy[arrivals[index].fire];
        Outcome& outcome = outcomes[index];
        outcome.done_s = received;
        const std::string seconds = token_after(line, "seconds=");
        outcome.server_s = seconds.empty() ? 0.0 : std::stod(seconds);
        outcome.line = std::move(line);
      }
    }
  }
  return conflicts;
}

/// The deterministic prefix of a response (text before " seconds=").
std::string prefix_of(const std::string& line) {
  return line.substr(0, line.find(" seconds="));
}

std::map<std::string, std::string> stats_tokens(const std::string& line) {
  std::map<std::string, std::string> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string token = line.substr(pos, end - pos);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) tokens[token.substr(0, eq)] = token.substr(eq + 1);
    pos = end + 1;
  }
  return tokens;
}

}  // namespace

RunResult run_serve(const Options& options) {
  RunResult result;
  const std::uint64_t server_seed = kServerSeed;

  // Set-up: schedule generation, server start and first ping, repeated; the
  // last server is the one measured.
  std::vector<double> setup_times;
  Schedule schedule;
  std::unique_ptr<ServerProcess> server;
  int port = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->shutdown();
    server.reset();
    const double start = now_s();
    schedule = make_schedule(options.seed, options.seconds);
    server = std::make_unique<ServerProcess>(options, server_seed);
    port = server->wait_ready(30.0);
    setup_times.push_back(now_s() - start);
  }

  std::vector<Outcome> outcomes;
  const std::size_t conflicts = drive(port, schedule, outcomes);
  const double rss = peak_rss_mib(std::to_string(server->pid()));
  std::map<std::string, std::string> stats;
  if (options.trace) {
    serve::LineClient client("127.0.0.1", port, 30.0);
    stats = stats_tokens(client.request("stats"));
  }
  server->shutdown();
  server.reset();

  // Oracle: each distinct (fire, horizon) once, cache off, one worker.
  const std::vector<Arrival>& arrivals = schedule.arrivals;
  std::map<std::pair<std::size_t, int>, std::size_t> job_of;
  std::vector<std::pair<std::size_t, int>> jobs;
  for (const Arrival& arrival : arrivals)
    if (job_of.emplace(std::make_pair(arrival.fire, arrival.steps), jobs.size())
            .second)
      jobs.emplace_back(arrival.fire, arrival.steps);
  service::JobSpec oracle_spec;
  oracle_spec.cache_policy = cache::CachePolicy::kOff;
  std::vector<service::JobRecord> oracle(jobs.size());
  parallel_for(jobs.size(), 4, [&](std::size_t i) {
    synth::WorkloadRequest request = schedule.fires[jobs[i].first].request;
    request.steps = jobs[i].second;
    const synth::Workload workload = synth::make_workload(request);
    oracle[i] = service::run_prediction_job(
        workload, 0, server_seed, 1, oracle_spec, simd::Mode::kAuto,
        parallel::NumaMode::kAuto, firelib::SweepBackend::kScalar, nullptr);
  });

  std::vector<double> latencies, lags;
  std::map<Kind, std::vector<double>> by_kind;
  std::size_t met = 0, ok_count = 0, rejected = 0;
  double last_done = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& arrival = arrivals[i];
    const Outcome& outcome = outcomes[i];
    ++result.attempted;
    if (outcome.sent_s >= 0.0) lags.push_back(outcome.sent_s - arrival.at_s);
    if (outcome.line.find(" rejected: ") != std::string::npos) ++rejected;
    const std::string expected = serve::format_job_response(
        schedule.fires[arrival.fire].id,
        arrival.kind == Kind::kCold ? serve::Verb::kPredict
                                    : serve::Verb::kRepredict,
        oracle[job_of.at({arrival.fire, arrival.steps})]);
    if (outcome.done_s < 0.0 || outcome.line.rfind("ok ", 0) != 0) {
      ++result.failed;
      result.note("request " + std::to_string(i) + " (" + arrival.line + "): " +
                  (outcome.done_s < 0.0 ? "no response" : outcome.line));
      continue;
    }
    if (prefix_of(outcome.line) != expected) {
      ++result.failed;
      result.fail("request " + std::to_string(i) + " (" + arrival.line +
                  ") diverged from the oracle: " + outcome.line);
      continue;
    }
    ++ok_count;
    const double latency = outcome.done_s - arrival.at_s;
    latencies.push_back(latency);
    by_kind[arrival.kind].push_back(latency);
    last_done = std::max(last_done, outcome.done_s);
    if (latency <= kSloLimit_s) ++met;
  }
  const double lag_max = lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end());
  const double lag_p90 = quantile(lags, 0.90);
  if (lag_p90 > kLagLimitShare * kSloLimit_s)
    result.fail("generator fell behind: lag p90 " + std::to_string(lag_p90) +
                " s is more than " + std::to_string(kLagLimitShare) +
                " of L; the run measures the client, not the server");

  // Engine queue wait and run time per request, reconstructed from send
  // times and each response's seconds= (engine admission to completion):
  // the engine starts queued jobs FIFO on kJobSlots slots, each as soon as
  // a slot frees.
  std::vector<double> waits, runs, serve_waits;
  std::vector<double> run_of(arrivals.size(), 0.0);
  std::vector<double> slot_free(kJobSlots, 0.0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    if (outcome.server_s <= 0.0) continue;
    const double submit = outcome.sent_s;
    const double done = submit + outcome.server_s;
    auto slot = std::min_element(slot_free.begin(), slot_free.end());
    const double begin = std::min(done, std::max(submit, *slot));
    *slot = done;
    waits.push_back(begin - submit);
    runs.push_back(done - begin);
    run_of[i] = done - begin;
    serve_waits.push_back(outcome.done_s - arrivals[i].at_s - outcome.server_s);
  }
  const double attempted = static_cast<double>(std::max<std::size_t>(1, result.attempted));
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = median(setup_times);
  e2e["peak_rss_mb"] = rss;
  e2e["jobs_per_s"] = last_done > 0.0 ? static_cast<double>(ok_count) / last_done : 0.0;
  e2e["slo_ratio"] = static_cast<double>(met) / attempted;
  e2e["req_mean_s"] = mean(latencies);
  result.report = {
      {"failed_ratio", static_cast<double>(result.failed) / attempted, "ratio"},
      {"req_p50_s", quantile(latencies, 0.50), "s"},
      {"req_p90_s", quantile(latencies, 0.90), "s"},
      {"cold_p50_s", quantile(by_kind[Kind::kCold], 0.50), "s"},
      {"warm_p50_s", quantile(by_kind[Kind::kWarm], 0.50), "s"},
      {"extend_p50_s", quantile(by_kind[Kind::kExtend], 0.50), "s"},
      {"requests", static_cast<double>(arrivals.size()), "count"},
      {"cold_requests", static_cast<double>(by_kind[Kind::kCold].size()), "count"},
      {"warm_requests", static_cast<double>(by_kind[Kind::kWarm].size()), "count"},
      {"extend_requests", static_cast<double>(by_kind[Kind::kExtend].size()), "count"},
      {"offered_rate", kOfferedRate, "1/s"},
      {"slot_utilization",
       last_done > 0.0 ? sum(runs) / (kJobSlots * last_done) : 0.0, "ratio"},
      {"slo_limit_s", kSloLimit_s, "s"},
      {"gen.lag_p90_s", lag_p90, "s"},
      {"gen.lag_max_s", lag_max, "s"},
      {"gen.conflicts", static_cast<double>(conflicts), "count"},
      {"rejected", static_cast<double>(rejected), "count"},
  };
  if (!options.trace) return result;

  // ---- Traced run: per-layer figures. ----
  auto& layers = result.per_layer;
  layers["serve.cold_p50_s"] = quantile(by_kind[Kind::kCold], 0.50);
  layers["serve.warm_p50_s"] = quantile(by_kind[Kind::kWarm], 0.50);
  layers["serve.extend_p50_s"] = quantile(by_kind[Kind::kExtend], 0.50);
  layers["serve.rejected"] = static_cast<double>(rejected);
  layers["req.p50_s"] = quantile(latencies, 0.50);
  layers["req.p90_s"] = quantile(latencies, 0.90);
  layers["gen.lag_p90_s"] = lag_p90;
  layers["gen.lag_max_s"] = lag_max;

  layers["engine.queue_wait_s_p50"] = quantile(waits, 0.50);
  layers["engine.queue_wait_s_p90"] = quantile(waits, 0.90);
  layers["engine.run_s_p50"] = quantile(runs, 0.50);
  layers["serve.wait_s_p50"] = quantile(serve_waits, 0.50);

  const auto stat = [&stats](const char* key) {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  };
  layers["cache.hits"] = stat("cache_hits");
  layers["cache.misses"] = stat("cache_misses");
  layers["cache.hit_ratio"] = stat("cache_hit_rate");
  layers["cache.peak_bytes"] = stat("cache_bytes");

  // Replay the first half of the request sequence in order through the
  // decorated pipeline with one shared cache, as the server's engine holds.
  const std::size_t replayed = arrivals.size() / 2;
  const auto cache = std::make_shared<cache::SharedScenarioCache>(
      cache::kDefaultCacheBytes);
  service::JobSpec spec;
  spec.cache_policy = cache::CachePolicy::kShared;
  std::vector<synth::Workload> workloads;
  workloads.reserve(replayed);
  std::vector<TracedJob> traced;
  std::vector<double> workload_times, steps;
  double untraced_job_s = 0.0;
  for (std::size_t i = 0; i < replayed; ++i) {
    const Arrival& arrival = arrivals[i];
    synth::WorkloadRequest request = schedule.fires[arrival.fire].request;
    request.steps = arrival.steps;
    const double start = now_s();
    workloads.push_back(synth::make_workload(request));
    workload_times.push_back(now_s() - start);
    traced.push_back(run_traced_job(workloads.back(), 0, server_seed, spec, cache));
    if (!same_results(traced.back().record,
                      oracle[job_of.at({arrival.fire, arrival.steps})]))
      result.fail("traced replay of request " + std::to_string(i) +
                  " differs from the oracle");
    for (const ess::StepReport& step : traced.back().record.result.steps)
      steps.push_back(step.elapsed_seconds);
    untraced_job_s += run_of[i];
  }
  layers["synth.workload_s"] = sum(workload_times) /
                               static_cast<double>(std::max<std::size_t>(1, replayed));
  layers["step.p50_s"] = quantile(steps, 0.50);
  layers["step.p95_s"] = quantile(steps, 0.95);
  const ReplayStats replay = replay_os_batches(traced, kReplaySweeps);
  add_traced_layers(traced, replay, untraced_job_s, layers, result);
  result.budget_lines.push_back(
      "serve request time outside the engine (client lag + socket + "
      "parse + workload build): p50 " + std::to_string(quantile(serve_waits, 0.5)) +
      " s of request p50 " + std::to_string(quantile(latencies, 0.5)) + " s");
  result.budget_lines.push_back(
      "engine queue wait p50 " + std::to_string(quantile(waits, 0.5)) +
      " s, p90 " + std::to_string(quantile(waits, 0.9)) + " s; run p50 " +
      std::to_string(quantile(runs, 0.5)) + " s (reconstructed from " +
      std::to_string(runs.size()) + " responses)");
  return result;
}

}  // namespace perfbench
