// The serve line protocol: newline-delimited, human-typeable request and
// response lines over a plain TCP socket — the thinnest possible front door
// to a PredictionEngine (telnet/nc are valid clients, and a load balancer
// needs no codec).
//
// Request grammar (one line, LF-terminated; tokens separated by single
// spaces):
//
//   request    = verb *( SP key "=" value )
//   verb       = "ping" | "predict" | "repredict" | "metrics" | "stats"
//              | "shutdown"
//
//   predict    — predict a NEW fire and start tracking it under `id`
//     id=<name>            required; must not already be tracked
//     fire keys (synth::set_fire_key):
//       terrain=plains|hills|rugged        size=<16..1024>
//       weather=steady|wind_shift|diurnal  ignition=center|offset|edge|corner
//       seed=<u64>  steps=<2..64>  step_minutes=<f>  noise=<f>
//     search keys (ess::set_search_key):
//       method=<run-spec method>  generations=<1..1000>  fitness_threshold=<f>
//       population=<2..4096>  offspring=<1..4096>  novelty_k=<0..1024>
//       islands=<1..64>
//     priority=<int>       (higher runs sooner)
//     All optional keys default to the server's configuration, whose serve
//     keys go through the same parsers and bounds. The integer ranges
//     bound what one request can ask for (size=100000 would be an 80 GB
//     grid); <f> is any finite number.
//
//   repredict  — re-predict the tracked fire `id` at a later interval
//     id=<name>            required; must be tracked
//     steps=<2..64>        new horizon; omitted = same horizon
//     priority=<int>
//     Same workload, same seed: the ground-truth prefix is unchanged, so
//     the engine's shared cache serves the earlier steps warm — the
//     steady-state speedup bench_serve measures.
//
//   metrics    — one-line JSON scrape of the engine's MetricsRegistry
//   stats      — queue/cache/tracking counters as key=value tokens
//   shutdown   — drain in-flight jobs, flush responses, exit
//
// Responses are single lines: "ok ..." or "err <message>". Prediction
// responses carry the deterministic result fields first —
//
//   ok id=<id> kind=<predict|repredict> status=succeeded
//      workload=<name> seed=<u64> steps=<n> mean_quality=<%.17g>
//      qualities=<q1,q2,...> kigns=<k1,k2,...>
//
// — every one of which is a pure function of (server seed, request
// parameters), byte-reproducible by an in-process oracle
// (service::run_prediction_job). Timing/cache fields (seconds=...,
// cache_hits=..., ...) follow AFTER the deterministic prefix; divergence
// checks compare the line truncated at " seconds=".
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace essns::serve {

enum class Verb { kPing, kPredict, kRepredict, kMetrics, kStats, kShutdown };

const char* to_string(Verb verb);

/// One parsed request line.
struct Request {
  Verb verb = Verb::kPing;
  std::string id;  ///< required for predict/repredict
  /// predict: the server's default fire and search spec with the request's
  /// keys applied.
  synth::WorkloadRequest fire;
  service::JobSpec spec;
  /// repredict: the new horizon, when given.
  std::optional<int> steps;
  int priority = 0;
};

/// Parse one request line (no trailing newline) over the server defaults
/// `fire` and `spec`. Throws InvalidArgument with a message naming the
/// offending verb/key/value.
Request parse_request(const std::string& line,
                      const synth::WorkloadRequest& fire = {},
                      const service::JobSpec& spec = {});

/// %.17g — the round-trip-exact rendering the JSONL reports use; response
/// doubles follow the same discipline so byte comparison is meaningful.
std::string format_g17(double value);

/// The deterministic prefix of a prediction response (see the grammar
/// above): everything in it is a pure function of the job's inputs. The
/// server and the bench oracle both call this, so "divergence" is a string
/// inequality. For a failed job, returns the "err id=... job failed: ..."
/// line instead.
std::string format_job_response(const std::string& id, Verb verb,
                                const service::JobRecord& record);

/// Collapse MetricsRegistry::json() (pretty-printed, multi-line) to one
/// line: newlines and their following indentation dropped. Safe because
/// json_escape renders control characters as escapes, so no string literal
/// in the document contains a raw newline.
std::string compact_json(const std::string& json);

}  // namespace essns::serve
