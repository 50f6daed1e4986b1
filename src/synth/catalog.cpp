#include "synth/catalog.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/limits.hpp"
#include "synth/weather.hpp"

namespace essns::synth {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// The enum values of the fire and catalog keys, shared by both parsers.
TerrainFamily terrain_value(const std::string& key, const std::string& name) {
  return limits::enum_value(key, name, parse_terrain_family(name),
                            "plains|hills|rugged");
}

WeatherRegime weather_value(const std::string& key, const std::string& name) {
  return limits::enum_value(key, name, parse_weather_regime(name),
                            "steady|wind_shift|diurnal");
}

IgnitionPattern ignition_value(const std::string& key,
                               const std::string& name) {
  return limits::enum_value(key, name, parse_ignition_pattern(name),
                            "center|offset|edge|corner");
}

void validate(const CatalogSpec& spec) {
  ESSNS_REQUIRE(!spec.terrains.empty(), "catalog needs >= 1 terrain family");
  ESSNS_REQUIRE(!spec.sizes.empty(), "catalog needs >= 1 map size");
  ESSNS_REQUIRE(!spec.weather.empty(), "catalog needs >= 1 weather regime");
  ESSNS_REQUIRE(!spec.ignitions.empty(),
                "catalog needs >= 1 ignition pattern");
  ESSNS_REQUIRE(spec.seeds_per_case >= 1 &&
                    spec.seeds_per_case <= limits::kMaxSeedsPerCase,
                "seeds_per_case in [1, " +
                    std::to_string(limits::kMaxSeedsPerCase) + "]");
  ESSNS_REQUIRE(limits::range::steps.contains(spec.steps),
                "catalog steps in [2, " + std::to_string(limits::kMaxSteps) +
                    "] (pipeline needs calibration + prediction)");
  ESSNS_REQUIRE(spec.step_minutes > 0.0, "step_minutes must be positive");
  ESSNS_REQUIRE(
      spec.observation_noise >= 0.0 && spec.observation_noise < 1.0,
      "observation noise in [0,1)");
  for (int size : spec.sizes)
    ESSNS_REQUIRE(limits::range::size.contains(size),
                  "catalog map sizes must be in [16, " +
                      std::to_string(limits::kMaxGridSize) + "] cells");
}

Workload make_terrain(TerrainFamily family, int size, std::uint64_t seed) {
  switch (family) {
    case TerrainFamily::kPlains: return make_plains(size, seed);
    case TerrainFamily::kHills: return make_hills(size, seed);
    case TerrainFamily::kRugged: return make_rugged(size, seed);
  }
  throw InvalidArgument("unknown terrain family enumerator");
}

}  // namespace

std::optional<TerrainFamily> parse_terrain_family(const std::string& name) {
  if (name == "plains") return TerrainFamily::kPlains;
  if (name == "hills") return TerrainFamily::kHills;
  if (name == "rugged") return TerrainFamily::kRugged;
  return std::nullopt;
}

std::optional<WeatherRegime> parse_weather_regime(const std::string& name) {
  if (name == "steady") return WeatherRegime::kSteady;
  if (name == "wind_shift") return WeatherRegime::kWindShift;
  if (name == "diurnal") return WeatherRegime::kDiurnal;
  return std::nullopt;
}

std::optional<IgnitionPattern> parse_ignition_pattern(
    const std::string& name) {
  if (name == "center") return IgnitionPattern::kCenter;
  if (name == "offset") return IgnitionPattern::kOffset;
  if (name == "edge") return IgnitionPattern::kEdge;
  if (name == "corner") return IgnitionPattern::kCorner;
  return std::nullopt;
}

const char* to_string(TerrainFamily family) {
  switch (family) {
    case TerrainFamily::kPlains: return "plains";
    case TerrainFamily::kHills: return "hills";
    case TerrainFamily::kRugged: return "rugged";
  }
  return "?";
}

const char* to_string(WeatherRegime regime) {
  switch (regime) {
    case WeatherRegime::kSteady: return "steady";
    case WeatherRegime::kWindShift: return "wind_shift";
    case WeatherRegime::kDiurnal: return "diurnal";
  }
  return "?";
}

const char* to_string(IgnitionPattern pattern) {
  switch (pattern) {
    case IgnitionPattern::kCenter: return "center";
    case IgnitionPattern::kOffset: return "offset";
    case IgnitionPattern::kEdge: return "edge";
    case IgnitionPattern::kCorner: return "corner";
  }
  return "?";
}

std::size_t catalog_size(const CatalogSpec& spec) {
  return spec.terrains.size() * spec.sizes.size() * spec.weather.size() *
         spec.ignitions.size() * static_cast<std::size_t>(spec.seeds_per_case);
}

CellIndex ignition_cell(IgnitionPattern pattern, int size) {
  ESSNS_REQUIRE(size >= 16, "ignition patterns need a grid of >= 16 cells");
  switch (pattern) {
    case IgnitionPattern::kCenter: return {size / 2, size / 2};
    case IgnitionPattern::kOffset: return {size / 3, (2 * size) / 3};
    case IgnitionPattern::kEdge: return {size / 2, 2};
    case IgnitionPattern::kCorner: return {3, 3};
  }
  throw InvalidArgument("unknown ignition pattern enumerator");
}

bool set_fire_key(WorkloadRequest& request, const std::string& key,
                  const std::string& value) {
  if (key == "terrain") {
    request.terrain = terrain_value(key, value);
  } else if (key == "size") {
    request.size = limits::int_value(key, value, limits::range::size);
  } else if (key == "weather") {
    request.weather = weather_value(key, value);
  } else if (key == "ignition") {
    request.ignition = ignition_value(key, value);
  } else if (key == "seed") {
    request.seed = limits::u64_value(key, value);
  } else if (key == "steps") {
    request.steps = limits::int_value(key, value, limits::range::steps);
  } else if (key == "step_minutes") {
    request.step_minutes = limits::double_value(key, value);
  } else if (key == "noise") {
    request.observation_noise = limits::double_value(key, value);
  } else {
    return false;
  }
  return true;
}

Workload make_workload(const WorkloadRequest& request) {
  ESSNS_REQUIRE(request.size >= 16, "workload map size must be >= 16 cells");
  ESSNS_REQUIRE(request.steps >= 2,
                "workload steps >= 2 (pipeline needs calibration + "
                "prediction)");
  ESSNS_REQUIRE(request.step_minutes > 0.0, "step_minutes must be positive");
  ESSNS_REQUIRE(
      request.observation_noise >= 0.0 && request.observation_noise < 1.0,
      "observation noise in [0,1)");

  Workload workload =
      make_terrain(request.terrain, request.size, request.seed);
  GroundTruthConfig cfg = workload.truth_config;
  cfg.steps = request.steps;
  cfg.step_minutes = request.step_minutes;
  cfg.observation_noise = request.observation_noise;
  cfg.ignition = ignition_cell(request.ignition, request.size);
  cfg.drift_sigma = 0.0;

  switch (request.weather) {
    case WeatherRegime::kSteady:
      break;
    case WeatherRegime::kWindShift:
      cfg.drift_sigma = 0.08;
      break;
    case WeatherRegime::kDiurnal: {
      // Damp the morning moistures (as make_diurnal does) so the
      // fire survives into the afternoon wind peak.
      cfg.hidden.m1 = std::max(cfg.hidden.m1, 14.0);
      cfg.hidden.m10 = std::max(cfg.hidden.m10, 15.0);
      cfg.hidden.m100 = std::max(cfg.hidden.m100, 16.0);
      DiurnalWeatherConfig weather;
      weather.wind_base_mph = 5.0;
      weather.wind_diurnal_mph = 4.0;
      Rng weather_rng(combine_seed(request.seed, 0xd1u));
      workload.scenario_sequence =
          diurnal_scenarios(weather, cfg.hidden, /*start_hour=*/10.0,
                            cfg.step_minutes, cfg.steps, weather_rng);
      break;
    }
  }

  workload.truth_config = cfg;
  workload.name = std::string(to_string(request.terrain)) +
                  std::to_string(request.size) + "-" +
                  to_string(request.weather) + "-" +
                  to_string(request.ignition);
  return workload;
}

std::vector<Workload> generate_catalog(const CatalogSpec& spec) {
  validate(spec);

  std::vector<Workload> out;
  out.reserve(spec.max_workloads != 0
                  ? std::min(spec.max_workloads, catalog_size(spec))
                  : catalog_size(spec));
  for (std::size_t ti = 0; ti < spec.terrains.size(); ++ti) {
    for (std::size_t si = 0; si < spec.sizes.size(); ++si) {
      for (std::size_t wi = 0; wi < spec.weather.size(); ++wi) {
        for (std::size_t ii = 0; ii < spec.ignitions.size(); ++ii) {
          for (int rep = 0; rep < spec.seeds_per_case; ++rep) {
            if (spec.max_workloads != 0 && out.size() >= spec.max_workloads)
              return out;

            // Chain every dimension into the seed so replicate 0 of one cell
            // never collides with replicate 1 of a neighbouring cell.
            std::uint64_t seed = combine_seed(spec.base_seed, ti);
            seed = combine_seed(seed, si);
            seed = combine_seed(seed, wi);
            seed = combine_seed(seed, ii);
            seed = combine_seed(seed, static_cast<std::uint64_t>(rep));

            WorkloadRequest request;
            request.terrain = spec.terrains[ti];
            request.size = spec.sizes[si];
            request.weather = spec.weather[wi];
            request.ignition = spec.ignitions[ii];
            request.seed = seed;
            request.steps = spec.steps;
            request.step_minutes = spec.step_minutes;
            request.observation_noise = spec.observation_noise;

            Workload workload = make_workload(request);
            workload.name += "-s" + std::to_string(rep);
            out.push_back(std::move(workload));
          }
        }
      }
    }
  }
  return out;
}

CatalogSpec parse_catalog_spec(std::istream& in) {
  CatalogSpec spec;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto eq = stripped.find('=');
    ESSNS_REQUIRE(eq != std::string::npos,
                  "catalog line " + std::to_string(line_number) +
                      " is not key=value: " + stripped);
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    ESSNS_REQUIRE(!value.empty(), "catalog key '" + key + "' has empty value");

    if (key == "terrains") {
      spec.terrains.clear();
      for (const auto& name : split_list(value))
        spec.terrains.push_back(terrain_value(key, name));
    } else if (key == "sizes") {
      spec.sizes.clear();
      for (const auto& name : split_list(value))
        spec.sizes.push_back(
            limits::int_value(key, name, limits::range::size));
    } else if (key == "weather") {
      spec.weather.clear();
      for (const auto& name : split_list(value))
        spec.weather.push_back(weather_value(key, name));
    } else if (key == "ignitions") {
      spec.ignitions.clear();
      for (const auto& name : split_list(value))
        spec.ignitions.push_back(ignition_value(key, name));
    } else if (key == "seeds") {
      spec.seeds_per_case =
          limits::int_value(key, value, {1, limits::kMaxSeedsPerCase});
    } else if (key == "base_seed") {
      spec.base_seed = limits::u64_value(key, value);
    } else if (key == "steps") {
      spec.steps = limits::int_value(key, value, limits::range::steps);
    } else if (key == "step_minutes") {
      spec.step_minutes = limits::double_value(key, value);
    } else if (key == "noise") {
      spec.observation_noise = limits::double_value(key, value);
    } else if (key == "limit") {
      spec.max_workloads = static_cast<std::size_t>(
          limits::int_value(key, value, {0, std::numeric_limits<int>::max()}));
    } else {
      throw InvalidArgument("unknown catalog key: " + key);
    }
  }
  validate(spec);
  return spec;
}

CatalogSpec parse_catalog_spec(const std::string& text) {
  std::istringstream in(text);
  return parse_catalog_spec(in);
}

std::vector<std::size_t> shard_slice_indices(std::size_t workload_count,
                                             std::size_t shard_index,
                                             std::size_t shard_count) {
  ESSNS_REQUIRE(shard_count >= 1, "shard_count >= 1");
  ESSNS_REQUIRE(shard_index < shard_count, "shard_index < shard_count");
  std::vector<std::size_t> indices;
  if (workload_count > shard_index)
    indices.reserve((workload_count - shard_index + shard_count - 1) /
                    shard_count);
  for (std::size_t i = shard_index; i < workload_count; i += shard_count)
    indices.push_back(i);
  return indices;
}

}  // namespace essns::synth
