#include "ess/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/limits.hpp"

namespace essns::ess {
namespace {

TEST(RunSpecTest, DefaultsWhenEmpty) {
  const RunSpec spec = parse_run_spec("");
  EXPECT_EQ(spec.workload, "plains");
  EXPECT_EQ(spec.method, "ess-ns");
  EXPECT_EQ(spec.size, 48);
  EXPECT_EQ(spec.generations, 30);
  EXPECT_EQ(spec.workers, 1u);
}

TEST(RunSpecTest, ParsesAllKeys) {
  const RunSpec spec = parse_run_spec(
      "workload=hills\n"
      "size=64\n"
      "method=essim-de-tuned\n"
      "seed=99\n"
      "generations=12\n"
      "fitness_threshold=0.8\n"
      "population=16\n"
      "offspring=20\n"
      "workers=4\n"
      "novelty_k=5\n"
      "islands=2\n"
      "cache=off\n");
  EXPECT_EQ(spec.workload, "hills");
  EXPECT_EQ(spec.size, 64);
  EXPECT_EQ(spec.method, "essim-de-tuned");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.generations, 12);
  EXPECT_DOUBLE_EQ(spec.fitness_threshold, 0.8);
  EXPECT_EQ(spec.population, 16u);
  EXPECT_EQ(spec.offspring, 20u);
  EXPECT_EQ(spec.workers, 4u);
  EXPECT_EQ(spec.novelty_k, 5);
  EXPECT_EQ(spec.islands, 2);
  EXPECT_EQ(spec.cache_policy, cache::CachePolicy::kOff);
}

TEST(RunSpecTest, CacheKeyParsesPolicies) {
  // Default step; the old boolean spellings (on/true/1, false/0) are gone.
  EXPECT_EQ(parse_run_spec("").cache_policy, cache::CachePolicy::kStep);
  EXPECT_EQ(parse_run_spec("cache=step\n").cache_policy,
            cache::CachePolicy::kStep);
  EXPECT_EQ(parse_run_spec("cache=shared\n").cache_policy,
            cache::CachePolicy::kShared);
  EXPECT_EQ(parse_run_spec("cache=off\n").cache_policy,
            cache::CachePolicy::kOff);
  for (const char* legacy : {"on", "true", "1", "false", "0"})
    EXPECT_THROW(parse_run_spec(std::string("cache=") + legacy + "\n"),
                 InvalidArgument)
        << legacy;
  EXPECT_THROW(parse_run_spec("cache=maybe\n"), InvalidArgument);
}

TEST(RunSpecTest, IntegerKeysHaveUpperBounds) {
  // The run-spec shares serve's caps (common/limits.hpp): each cap parses,
  // one past it is rejected with the key and value named. Parsing only —
  // no run starts.
  const std::pair<const char*, int> bounds[] = {
      {"size", limits::kMaxGridSize},
      {"generations", limits::kMaxGenerations},
      {"population", limits::kMaxPopulation},
      {"offspring", limits::kMaxPopulation},
      {"workers", limits::kMaxWorkers},
      {"novelty_k", limits::kMaxNoveltyK},
      {"islands", limits::kMaxIslands},
      {"cache_mem", limits::kMaxCacheMemMiB}};
  for (const auto& [key, bound] : bounds) {
    const std::string prefix = std::string(key) + "=";
    EXPECT_NO_THROW(parse_run_spec(prefix + std::to_string(bound) + "\n"))
        << key;
    for (const std::string& value :
         {std::to_string(bound + 1), std::string("100000000")}) {
      try {
        parse_run_spec(prefix + value + "\n");
        ADD_FAILURE() << "accepted " << key << "=" << value;
      } catch (const InvalidArgument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(key), std::string::npos) << message;
        EXPECT_NE(message.find(value), std::string::npos) << message;
      }
    }
  }
}

TEST(RunSpecTest, CacheMemKeyParsesMebibytes) {
  EXPECT_EQ(parse_run_spec("").exec.cache_mem_bytes,
            std::size_t{256} << 20);  // default
  EXPECT_EQ(parse_run_spec("cache_mem=32\n").exec.cache_mem_bytes,
            std::size_t{32} << 20);
  EXPECT_THROW(parse_run_spec("cache_mem=0\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("cache_mem=lots\n"), InvalidArgument);
}

TEST(RunSpecTest, IgnoresCommentsAndBlankLines) {
  const RunSpec spec = parse_run_spec(
      "# a comment\n"
      "\n"
      "  method = ess-ga  \n"
      "# another\n");
  EXPECT_EQ(spec.method, "ess-ga");
}

TEST(RunSpecTest, RejectsMalformedLines) {
  EXPECT_THROW(parse_run_spec("not a pair"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size="), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size=abc"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("unknown_key=3"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("backend=scalar"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("method=nope"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("workload=mars"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size=4"), InvalidArgument);  // below minimum
}

TEST(RunSpecTest, RejectsStrtolLeniencies) {
  // The strict parsers must not inherit strtol/strtod leniencies: embedded
  // whitespace, hex spellings and trailing junk all fail loudly (leading and
  // trailing whitespace around the value is trimmed by the key=value layer,
  // which is the documented config-file behavior).
  EXPECT_THROW(parse_run_spec("generations=1 2\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("generations=0x10\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("generations=12junk\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("fitness_threshold=0x1p2\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("fitness_threshold=1. 5\n"), InvalidArgument);
  // std::stod also accepts non-finite spellings; no config value means them.
  for (const char* value : {"nan", "inf", "-inf", "infinity", "1e400"})
    EXPECT_THROW(parse_run_spec(std::string("fitness_threshold=") + value),
                 InvalidArgument)
        << value;
  // Trimmed whitespace around a well-formed value still parses.
  EXPECT_EQ(parse_run_spec("generations= 12 \nmethod=ess-ga\n").generations,
            12);
}

TEST(RunSpecTest, SeedIsAnUnsignedInteger) {
  // The full 64-bit range round-trips exactly.
  EXPECT_EQ(parse_run_spec("seed=0\n").seed, 0u);
  EXPECT_EQ(parse_run_spec("seed=18446744073709551615\n").seed,
            18446744073709551615ULL);
  // Values with no uint64 meaning are config errors, not undefined casts.
  for (const char* value : {"nan", "inf", "-1", "1e30", "2.5", "1e3",
                            "18446744073709551616", "+7"}) {
    SCOPED_TRACE(value);
    EXPECT_THROW(parse_run_spec(std::string("seed=") + value),
                 InvalidArgument);
  }
}

TEST(RunSpecTest, KnownMethodsListMatchesFactory) {
  for (const auto& method : RunSpec::known_methods()) {
    RunSpec spec;
    spec.method = method;
    if (method == "essim-monitor") {
      EXPECT_THROW(make_optimizer(spec), InvalidArgument);
    } else {
      EXPECT_NE(make_optimizer(spec), nullptr) << method;
    }
  }
}

TEST(RunSpecTest, WorkloadFactoryHonoursSize) {
  RunSpec spec;
  spec.workload = "hills";
  spec.size = 24;
  const auto workload = make_workload(spec);
  EXPECT_EQ(workload.name, "hills");
  EXPECT_EQ(workload.environment.rows(), 24);
}

TEST(RunSpecEndToEndTest, RunsEveryMethodTiny) {
  for (const auto& method : RunSpec::known_methods()) {
    SCOPED_TRACE(method);
    RunSpec spec;
    spec.method = method;
    spec.size = 24;
    spec.generations = 3;
    spec.population = 8;
    spec.offspring = 8;
    spec.islands = 2;
    const PipelineResult result = run_spec(spec);
    EXPECT_FALSE(result.steps.empty());
    for (const auto& step : result.steps) {
      EXPECT_GE(step.prediction_quality, 0.0);
      EXPECT_LE(step.prediction_quality, 1.0);
    }
  }
}

TEST(RunSpecEndToEndTest, SeedChangesResults) {
  RunSpec a;
  a.size = 24;
  a.generations = 3;
  a.population = 8;
  a.offspring = 8;
  RunSpec b = a;
  b.seed = a.seed + 1;
  const auto ra = run_spec(a);
  const auto rb = run_spec(b);
  // Different hidden fire AND different search: qualities should differ
  // in at least one step (overwhelmingly likely).
  bool any_diff = false;
  for (std::size_t i = 0; i < ra.steps.size() && i < rb.steps.size(); ++i)
    if (ra.steps[i].prediction_quality != rb.steps[i].prediction_quality)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace essns::ess
