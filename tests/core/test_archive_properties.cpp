// Parameterized invariants that every archive policy must satisfy.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/archive.hpp"

namespace essns::core {
namespace {

// gtest prints a PolicyCase byte by byte into the test name, so the gap
// between `policy` and `capacity` is a real zeroed member: as padding it held
// whatever the stack did and the test names changed from build to build.
struct PolicyCase {
  ArchivePolicy policy;
  std::uint32_t zero_gap = 0;
  std::size_t capacity;
  const char* name;
};
static_assert(sizeof(ArchivePolicy) == 4 && sizeof(PolicyCase) == 24);

class ArchivePolicySweep : public ::testing::TestWithParam<PolicyCase> {
 protected:
  static ArchiveConfig config_of(const PolicyCase& c) {
    ArchiveConfig cfg;
    cfg.policy = c.policy;
    cfg.capacity = c.capacity;
    cfg.novelty_threshold = 0.1;
    return cfg;
  }

  static std::vector<ea::Individual> random_batch(Rng& rng, std::size_t n) {
    std::vector<ea::Individual> out(n);
    for (auto& ind : out) {
      ind.genome = {rng.uniform(), rng.uniform()};
      ind.fitness = rng.uniform();
      ind.novelty = rng.uniform();
    }
    return out;
  }
};

TEST_P(ArchivePolicySweep, NeverExceedsCapacityUnlessUnbounded) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  Rng rng(3);
  for (int round = 0; round < 50; ++round)
    archive.update(random_batch(rng, 16));
  if (c.policy == ArchivePolicy::kUnbounded) {
    EXPECT_EQ(archive.size(), 50u * 16u);
  } else {
    EXPECT_LE(archive.size(), c.capacity);
  }
}

TEST_P(ArchivePolicySweep, ArchivedItemsAreRealCandidates) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  Rng rng(5);
  std::vector<ea::Individual> all;
  for (int round = 0; round < 10; ++round) {
    auto batch = random_batch(rng, 8);
    all.insert(all.end(), batch.begin(), batch.end());
    archive.update(batch);
  }
  for (const auto& archived : archive.items()) {
    const bool found = std::any_of(all.begin(), all.end(), [&](const auto& x) {
      return x.genome == archived.genome && x.novelty == archived.novelty;
    });
    EXPECT_TRUE(found);
  }
}

TEST_P(ArchivePolicySweep, EmptyUpdateIsNoop) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  archive.update({});
  EXPECT_TRUE(archive.empty());
}

TEST_P(ArchivePolicySweep, DeterministicForSeed) {
  const PolicyCase& c = GetParam();
  NoveltyArchive a1(config_of(c), 99), a2(config_of(c), 99);
  Rng r1(7), r2(7);
  for (int round = 0; round < 20; ++round) {
    a1.update(random_batch(r1, 8));
    a2.update(random_batch(r2, 8));
  }
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i)
    EXPECT_EQ(a1.items()[i].genome, a2.items()[i].genome);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ArchivePolicySweep,
    ::testing::Values(
        PolicyCase{.policy = ArchivePolicy::kNoveltyRanked, .capacity = 8, .name = "ranked8"},
        PolicyCase{.policy = ArchivePolicy::kNoveltyRanked, .capacity = 64, .name = "ranked64"},
        PolicyCase{.policy = ArchivePolicy::kRandom, .capacity = 8, .name = "random8"},
        PolicyCase{.policy = ArchivePolicy::kRandom, .capacity = 64, .name = "random64"},
        PolicyCase{.policy = ArchivePolicy::kThreshold, .capacity = 16, .name = "threshold16"},
        PolicyCase{.policy = ArchivePolicy::kAdaptiveThreshold, .capacity = 16, .name = "adaptive16"},
        PolicyCase{.policy = ArchivePolicy::kUnbounded, .capacity = 1, .name = "unbounded"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace essns::core
