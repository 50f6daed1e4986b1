#include "serve/protocol.hpp"

#include <climits>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/limits.hpp"

namespace essns::serve {
namespace {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kPredict: return "predict";
    case Verb::kRepredict: return "repredict";
    case Verb::kMetrics: return "metrics";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line,
                      const synth::WorkloadRequest& fire,
                      const service::JobSpec& spec) {
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) throw InvalidArgument("empty request");

  Request request;
  request.fire = fire;
  request.spec = spec;
  const std::string& verb = tokens.front();
  if (verb == "ping") request.verb = Verb::kPing;
  else if (verb == "predict") request.verb = Verb::kPredict;
  else if (verb == "repredict") request.verb = Verb::kRepredict;
  else if (verb == "metrics") request.verb = Verb::kMetrics;
  else if (verb == "stats") request.verb = Verb::kStats;
  else if (verb == "shutdown") request.verb = Verb::kShutdown;
  else
    throw InvalidArgument(
        "unknown verb '" + verb +
        "' (expected ping|predict|repredict|metrics|stats|shutdown)");

  const bool is_predict = request.verb == Verb::kPredict;
  const bool is_repredict = request.verb == Verb::kRepredict;

  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw InvalidArgument("request token is not key=value: " + token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty())
      throw InvalidArgument("empty value for '" + key + "'");

    if (key == "id" && (is_predict || is_repredict)) {
      request.id = value;
    } else if (key == "priority" && (is_predict || is_repredict)) {
      request.priority = limits::int_value(key, value, {INT_MIN, INT_MAX});
    } else if (key == "steps" && is_repredict) {
      synth::WorkloadRequest horizon;
      synth::set_fire_key(horizon, key, value);
      request.steps = horizon.steps;
    } else if (!is_predict ||
               !(synth::set_fire_key(request.fire, key, value) ||
                 ess::set_search_key(request.spec, key, value))) {
      throw InvalidArgument("unknown key '" + key + "' for " +
                            to_string(request.verb));
    }
  }

  if ((is_predict || is_repredict) && request.id.empty())
    throw InvalidArgument(std::string(to_string(request.verb)) +
                          " needs id=<name>");
  return request;
}

std::string format_g17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format_job_response(const std::string& id, Verb verb,
                                const service::JobRecord& record) {
  if (record.status != service::JobStatus::kSucceeded)
    return "err id=" + id + " job failed: " + record.error;

  std::string qualities;
  std::string kigns;
  for (const auto& step : record.result.steps) {
    if (!qualities.empty()) qualities += ',';
    if (!kigns.empty()) kigns += ',';
    qualities += format_g17(step.prediction_quality);
    kigns += format_g17(step.kign);
  }
  std::string line = "ok id=" + id + " kind=" + to_string(verb) +
                     " status=succeeded workload=" + record.workload +
                     " seed=" + std::to_string(record.seed) +
                     " steps=" + std::to_string(record.result.steps.size()) +
                     " mean_quality=" + format_g17(record.result.mean_quality()) +
                     " qualities=" + qualities + " kigns=" + kigns;
  return line;
}

std::string compact_json(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  std::size_t i = 0;
  while (i < json.size()) {
    const char c = json[i];
    if (c == '\n' || c == '\r') {
      ++i;
      while (i < json.size() && json[i] == ' ') ++i;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

}  // namespace essns::serve
