#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.hpp"

namespace essns::serve {
namespace {

TEST(ServeProtocol, ParsesEveryVerb) {
  EXPECT_EQ(parse_request("ping").verb, Verb::kPing);
  EXPECT_EQ(parse_request("metrics").verb, Verb::kMetrics);
  EXPECT_EQ(parse_request("stats").verb, Verb::kStats);
  EXPECT_EQ(parse_request("shutdown").verb, Verb::kShutdown);
  EXPECT_EQ(parse_request("predict id=f1").verb, Verb::kPredict);
  EXPECT_EQ(parse_request("repredict id=f1").verb, Verb::kRepredict);
}

TEST(ServeProtocol, ParsesPredictOverrides) {
  const Request request = parse_request(
      "predict id=alpha terrain=hills size=24 weather=diurnal "
      "ignition=corner seed=99 steps=5 step_minutes=30.5 noise=0.1 "
      "method=ess-ga generations=7 fitness_threshold=0.9 population=12 "
      "offspring=10 novelty_k=4 islands=2 priority=3");
  EXPECT_EQ(request.id, "alpha");
  EXPECT_EQ(request.fire.terrain, synth::TerrainFamily::kHills);
  EXPECT_EQ(request.fire.size, 24);
  EXPECT_EQ(request.fire.weather, synth::WeatherRegime::kDiurnal);
  EXPECT_EQ(request.fire.ignition, synth::IgnitionPattern::kCorner);
  EXPECT_EQ(request.fire.seed, 99u);
  EXPECT_EQ(request.fire.steps, 5);
  EXPECT_DOUBLE_EQ(request.fire.step_minutes, 30.5);
  EXPECT_DOUBLE_EQ(request.fire.observation_noise, 0.1);
  EXPECT_EQ(request.spec.method, "ess-ga");
  EXPECT_EQ(request.spec.generations, 7);
  EXPECT_DOUBLE_EQ(request.spec.fitness_threshold, 0.9);
  EXPECT_EQ(request.spec.population, 12u);
  EXPECT_EQ(request.spec.offspring, 10u);
  EXPECT_EQ(request.spec.novelty_k, 4);
  EXPECT_EQ(request.spec.islands, 2);
  EXPECT_FALSE(request.steps);  // a predict's horizon is its fire's
  EXPECT_EQ(request.priority, 3);
}

TEST(ServeProtocol, AbsentKeysStayUnset) {
  // Keys a predict leaves out keep the server's defaults.
  synth::WorkloadRequest fire;
  fire.terrain = synth::TerrainFamily::kRugged;
  fire.size = 40;
  fire.seed = 5;
  service::JobSpec spec;
  spec.method = "ns-de";
  spec.population = 30;
  const Request request = parse_request("predict id=f1 size=24", fire, spec);
  EXPECT_EQ(request.fire.terrain, synth::TerrainFamily::kRugged);
  EXPECT_EQ(request.fire.size, 24);
  EXPECT_EQ(request.fire.seed, 5u);
  EXPECT_EQ(request.fire.steps, fire.steps);
  EXPECT_EQ(request.spec.method, "ns-de");
  EXPECT_EQ(request.spec.population, 30u);
  EXPECT_EQ(request.priority, 0);
  const Request repredict = parse_request("repredict id=f1");
  EXPECT_FALSE(repredict.steps);
  EXPECT_EQ(parse_request("repredict id=f1 steps=9").steps, 9);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(""), InvalidArgument);
  EXPECT_THROW(parse_request("launch id=f1"), InvalidArgument);     // verb
  EXPECT_THROW(parse_request("predict"), InvalidArgument);          // no id
  EXPECT_THROW(parse_request("repredict steps=3"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 colour=red"),
               InvalidArgument);                                    // key
  EXPECT_THROW(parse_request("ping id=f1"), InvalidArgument);  // key gating
  EXPECT_THROW(parse_request("repredict id=f1 terrain=hills"),
               InvalidArgument);  // fire params are predict-only
  EXPECT_THROW(parse_request("predict id=f1 size=8"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 steps=1"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 method=nope"), InvalidArgument);
  // Upper bounds: no single request may ask for unbounded memory or work.
  // Each bound itself is accepted; one past it names the key and value.
  const std::pair<const char*, int> bounds[] = {
      {"size", 1024},      {"steps", 64},       {"generations", 1000},
      {"population", 4096}, {"offspring", 4096}, {"novelty_k", 1024},
      {"islands", 64}};
  for (const auto& [key, bound] : bounds) {
    const std::string prefix = std::string("predict id=f1 ") + key + "=";
    EXPECT_NO_THROW(parse_request(prefix + std::to_string(bound))) << key;
    for (const std::string& value :
         {std::to_string(bound + 1), std::string("100000")}) {
      try {
        parse_request(prefix + value);
        ADD_FAILURE() << "accepted " << key << "=" << value;
      } catch (const InvalidArgument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(key), std::string::npos) << message;
        EXPECT_NE(message.find(value), std::string::npos) << message;
      }
    }
  }
  EXPECT_THROW(parse_request("repredict id=f1 steps=65"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 seed=abc"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 terrain=swamp"),
               InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 noise"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 ="), InvalidArgument);
  EXPECT_THROW(parse_request("predict id="), InvalidArgument);
  // Non-finite doubles parse as numbers but are not valid inputs.
  for (const char* key : {"step_minutes", "noise", "fitness_threshold"})
    for (const char* value : {"nan", "inf", "-inf"}) {
      const std::string line =
          std::string("predict id=f1 ") + key + "=" + value;
      try {
        parse_request(line);
        ADD_FAILURE() << "accepted " << line;
      } catch (const InvalidArgument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(key), std::string::npos) << message;
        EXPECT_NE(message.find(value), std::string::npos) << message;
      }
    }
}

TEST(ServeProtocol, ErrorsNameTheOffendingToken) {
  try {
    parse_request("predict id=f1 generations=zero");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("generations"), std::string::npos);
    EXPECT_NE(message.find("zero"), std::string::npos);
  }
}

TEST(ServeProtocol, FormatsSucceededJobResponse) {
  service::JobRecord record;
  record.workload = "plains16-steady-center";
  record.seed = 42;
  record.status = service::JobStatus::kSucceeded;
  ess::StepReport step;
  step.step = 1;
  step.kign = 0.25;
  step.prediction_quality = 0.875;
  record.result.steps.push_back(step);
  step.step = 2;
  step.kign = 0.5;
  step.prediction_quality = 1.0;
  record.result.steps.push_back(step);

  const std::string line = format_job_response("f1", Verb::kPredict, record);
  EXPECT_EQ(line,
            "ok id=f1 kind=predict status=succeeded "
            "workload=plains16-steady-center seed=42 steps=2 "
            "mean_quality=0.9375 qualities=0.875,1 kigns=0.25,0.5");
}

TEST(ServeProtocol, FormatsFailedJobResponse) {
  service::JobRecord record;
  record.status = service::JobStatus::kFailed;
  record.error = "cancelled: drain requested (signal)";
  const std::string line = format_job_response("f1", Verb::kRepredict, record);
  EXPECT_EQ(line, "err id=f1 job failed: cancelled: drain requested (signal)");
}

TEST(ServeProtocol, G17RoundTripsDoubles) {
  for (const double value : {0.1, 1.0 / 3.0, 12345.6789, 1e-300}) {
    EXPECT_EQ(std::stod(format_g17(value)), value);
  }
}

TEST(ServeProtocol, CompactJsonFlattensPrettyOutput) {
  EXPECT_EQ(compact_json("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"),
            "{\"a\": 1,\"b\": [2]}");
  EXPECT_EQ(compact_json("already flat"), "already flat");
  EXPECT_EQ(compact_json("cr\r\nlf"), "crlf");
}

}  // namespace
}  // namespace essns::serve
