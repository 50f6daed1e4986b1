// Every front door that takes a shared key — run-spec files, campaign keys,
// serve keys, serve requests and the shard wire — accepts and rejects the
// same values: lo-1, lo, hi and hi+1 of the key's one bound
// (common/limits.hpp). Parsing and decoding only; no job runs.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/limits.hpp"
#include "ess/config.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "service/campaign.hpp"
#include "shard/wire.hpp"

namespace essns {
namespace {

/// true/false: the door accepts/rejects the value; nullopt: the door does
/// not take the key at all.
using Answer = std::optional<bool>;

/// Run `parse`; a throw whose message contains `unknown` means the door
/// does not know the key.
Answer text_door(const std::function<void()>& parse, const char* unknown) {
  try {
    parse();
    return true;
  } catch (const InvalidArgument& error) {
    if (std::string(error.what()).find(unknown) != std::string::npos)
      return std::nullopt;
    return false;
  }
}

template <typename Config, typename Setter>
Answer setter_door(Setter set, const std::string& key,
                   const std::string& value) {
  Config config;
  try {
    return set(config, key, value) ? Answer(true) : std::nullopt;
  } catch (const InvalidArgument&) {
    return false;
  }
}

Answer wire_door(const std::string& key, const std::string& value) {
  shard::WorkerConfig config;
  const auto number = std::stoll(value);  // the wire carries no text
  if (key == "generations")
    config.spec.generations = static_cast<int>(number);
  else if (key == "population")
    config.spec.population = static_cast<std::size_t>(number);
  else if (key == "offspring")
    config.spec.offspring = static_cast<std::size_t>(number);
  else if (key == "novelty_k")
    config.spec.novelty_k = static_cast<int>(number);
  else if (key == "islands")
    config.spec.islands = static_cast<int>(number);
  else if (key == "jobs")
    config.job_concurrency = static_cast<std::uint32_t>(number);
  else if (key == "workers")
    config.workers_per_job = static_cast<std::uint32_t>(number);
  else if (key == "cache_mem")
    config.exec.cache_mem_bytes = static_cast<std::size_t>(number) << 20;
  else
    return std::nullopt;
  const std::vector<std::uint8_t> payload = shard::encode_worker_config(config);
  BinaryReader in(payload);
  try {
    (void)shard::decode_worker_config(in);
    return true;
  } catch (const WireError&) {
    return false;
  }
}

struct Door {
  const char* name;
  std::function<Answer(const std::string&, const std::string&)> accepts;
};

std::vector<Door> doors() {
  return {
      {"parse_run_spec",
       [](const std::string& key, const std::string& value) -> Answer {
         // A run's `size` is its workload's edge (8..1024), not the fire key.
         if (key == "size") return std::nullopt;
         return text_door(
             [&] { (void)ess::parse_run_spec(key + "=" + value + "\n"); },
             "unknown config key");
       }},
      {"campaign keys",
       [](const std::string& key, const std::string& value) {
         return setter_door<service::CampaignConfig>(service::set_campaign_key,
                                                     key, value);
       }},
      {"serve keys",
       [](const std::string& key, const std::string& value) {
         return setter_door<serve::ServeConfig>(serve::set_serve_key, key,
                                                value);
       }},
      {"parse_request",
       [](const std::string& key, const std::string& value) {
         return text_door(
             [&] { (void)serve::parse_request("predict id=f " + key + "=" +
                                              value); },
             "unknown key");
       }},
      {"decode_worker_config", wire_door},
  };
}

TEST(KeyBounds, EveryFrontDoorAcceptsAndRejectsAlike) {
  const std::pair<const char*, limits::Range> keys[] = {
      {"generations", limits::range::generations},
      {"population", limits::range::population},
      {"offspring", limits::range::offspring},
      {"novelty_k", limits::range::novelty_k},
      {"islands", limits::range::islands},
      {"size", limits::range::size},
      {"steps", limits::range::steps},
      {"workers", limits::range::workers},
      {"jobs", limits::range::jobs},
      {"cache_mem", limits::range::cache_mem_mib},
  };
  for (const auto& [key, range] : keys) {
    for (const long long value :
         {range.lo - 1LL, range.lo + 0LL, range.hi + 0LL, range.hi + 1LL}) {
      const bool in_range = range.contains(value);
      int takers = 0;
      for (const Door& door : doors()) {
        const Answer answer = door.accepts(key, std::to_string(value));
        if (!answer) continue;
        ++takers;
        EXPECT_EQ(*answer, in_range)
            << door.name << " " << key << "=" << value;
      }
      EXPECT_GE(takers, 2) << key << " is not a shared key";
    }
  }
}

TEST(KeyBounds, FitnessThresholdIsFiniteEverywhere) {
  for (const char* value : {"0.5", "nan", "inf", "-inf"}) {
    const bool finite = std::string(value) == "0.5";
    for (const Door& door : doors()) {
      if (std::string(door.name) == "decode_worker_config") continue;
      const Answer answer = door.accepts("fitness_threshold", value);
      ASSERT_TRUE(answer) << door.name;
      EXPECT_EQ(*answer, finite) << door.name << " " << value;
    }
  }
  shard::WorkerConfig config;
  config.spec.fitness_threshold = std::numeric_limits<double>::infinity();
  const std::vector<std::uint8_t> payload = shard::encode_worker_config(config);
  BinaryReader in(payload);
  EXPECT_THROW((void)shard::decode_worker_config(in), WireError);
}

}  // namespace
}  // namespace essns
