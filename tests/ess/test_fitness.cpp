#include "ess/fitness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace essns::ess {
namespace {

Grid<std::uint8_t> mask(std::initializer_list<std::initializer_list<int>> rows) {
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows.begin()->size());
  Grid<std::uint8_t> m(r, c, 0);
  int i = 0;
  for (const auto& row : rows) {
    int j = 0;
    for (int v : row) m(i, j++) = static_cast<std::uint8_t>(v);
    ++i;
  }
  return m;
}

TEST(JaccardTest, PerfectMatchIsOne) {
  const auto a = mask({{1, 1}, {0, 0}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, a, none), 1.0);
}

TEST(JaccardTest, DisjointIsZero) {
  const auto a = mask({{1, 0}, {0, 0}});
  const auto b = mask({{0, 0}, {0, 1}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, none), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  // |A ∩ B| = 1, |A ∪ B| = 3.
  const auto a = mask({{1, 1}, {0, 0}});
  const auto b = mask({{1, 0}, {1, 0}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_NEAR(jaccard(a, b, none), 1.0 / 3.0, 1e-12);
}

TEST(JaccardTest, PreburnedCellsExcluded) {
  // Both maps agree on the preburned cell; including it would give 1/3, but
  // Eq. (3) excludes it, leaving no agreement at all — exactly the
  // optimistic skew the paper's formulation removes.
  const auto a = mask({{1, 1}, {0, 0}});
  const auto b = mask({{1, 0}, {1, 0}});
  const auto pre = mask({{1, 0}, {0, 0}});
  EXPECT_NEAR(jaccard(a, b, pre), 0.0 / 2.0, 1e-12);
}

TEST(JaccardTest, EverythingPreburnedIsVacuouslyPerfect) {
  const auto a = mask({{1, 1}, {1, 1}});
  const auto pre = mask({{1, 1}, {1, 1}});
  const auto b = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, pre), 1.0);
}

TEST(JaccardTest, BothEmptyIsPerfect) {
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(none, none, none), 1.0);
}

TEST(JaccardTest, SymmetricInArguments) {
  const auto a = mask({{1, 1, 0}, {0, 1, 0}});
  const auto b = mask({{1, 0, 1}, {0, 1, 1}});
  const auto none = mask({{0, 0, 0}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, none), jaccard(b, a, none));
}

TEST(JaccardTest, BoundedZeroOne) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Grid<std::uint8_t> a(4, 4, 0), b(4, 4, 0), pre(4, 4, 0);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        a(r, c) = rng.bernoulli(0.5);
        b(r, c) = rng.bernoulli(0.5);
        pre(r, c) = rng.bernoulli(0.2);
      }
    }
    const double f = jaccard(a, b, pre);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(JaccardTest, DimensionMismatchThrows) {
  Grid<std::uint8_t> a(2, 2, 0), b(2, 3, 0), pre(2, 2, 0);
  EXPECT_THROW(jaccard(a, b, pre), InvalidArgument);
}

TEST(JaccardAtTest, ComparesIgnitionMapsAtTime) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 2, firelib::kNeverIgnited);
  real(0, 0) = 0.0;   // preburned at t=0
  real(0, 1) = 30.0;  // burned within the step
  sim(0, 0) = 0.0;
  sim(0, 1) = 25.0;   // simulated also burns it
  sim(1, 0) = 40.0;   // extra simulated cell
  // At t=60, excluding t<=0 preburned: A={0,1}, B={0,1 and 1,0}.
  EXPECT_NEAR(jaccard_at(real, sim, 60.0, 0.0), 0.5, 1e-12);
}

TEST(JaccardAtTest, RejectsInvertedTimes) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 2, firelib::kNeverIgnited);
  EXPECT_THROW(jaccard_at(real, sim, 10.0, 20.0), InvalidArgument);
}

TEST(JaccardAtTest, RejectsNonFiniteTimes) {
  // At time_min = kNeverIgnited the old kernels counted every never-ignited
  // cell as burned (inf <= inf) and returned a spuriously perfect score for
  // two empty maps. Fused and reference kernels now agree: finite times only.
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 2, firelib::kNeverIgnited);
  real(0, 0) = 1.0;
  EXPECT_THROW(jaccard_at(real, sim, firelib::kNeverIgnited, 0.0),
               InvalidArgument);
  EXPECT_THROW(jaccard_at_reference(real, sim, firelib::kNeverIgnited, 0.0),
               InvalidArgument);
  EXPECT_THROW(
      jaccard_at(real, sim, 10.0, -firelib::kNeverIgnited), InvalidArgument);
  EXPECT_THROW(jaccard_at_reference(real, sim, 10.0, -firelib::kNeverIgnited),
               InvalidArgument);
  EXPECT_THROW(jaccard_at(real, sim, std::nan(""), 0.0), InvalidArgument);
  EXPECT_THROW(jaccard_at_reference(real, sim, std::nan(""), 0.0),
               InvalidArgument);
}

TEST(JaccardAtTest, RejectsDimensionMismatch) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 3, firelib::kNeverIgnited);
  EXPECT_THROW(jaccard_at(real, sim, 10.0, 0.0), InvalidArgument);
  EXPECT_THROW(jaccard_at_reference(real, sim, 10.0, 0.0), InvalidArgument);
}

TEST(JaccardAtTest, FusedKernelMatchesReferenceBitwise) {
  // Property: the fused single-pass Eq. (3) kernel equals the
  // mask-materializing reference on randomized maps, times and preburn
  // horizons — including never-ignited (infinite) cells and exact-boundary
  // ignition times.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int rows = 2 + static_cast<int>(rng.uniform_int(0, 6));
    const int cols = 2 + static_cast<int>(rng.uniform_int(0, 6));
    firelib::IgnitionMap real(rows, cols, firelib::kNeverIgnited);
    firelib::IgnitionMap sim(rows, cols, firelib::kNeverIgnited);
    for (double& t : real)
      if (rng.bernoulli(0.6)) t = rng.uniform(0.0, 100.0);
    for (double& t : sim)
      if (rng.bernoulli(0.6)) t = rng.uniform(0.0, 100.0);
    const double preburned = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 50.0);
    const double time = preburned + rng.uniform(0.0, 60.0);
    const double fused = jaccard_at(real, sim, time, preburned);
    const double reference = jaccard_at_reference(real, sim, time, preburned);
    ASSERT_EQ(fused, reference) << "trial " << trial;  // bitwise, not approx
  }
}

// Draws a map cell from the values the epilogue's compares are sensitive
// to: never ignited, signed zeros, the two interval boundaries exactly,
// values past the horizon, NaN, and ordinary times inside the interval.
double edge_time(Rng& rng, double start, double end) {
  switch (rng.uniform_int(0, 8)) {
    case 0: return firelib::kNeverIgnited;
    case 1: return 0.0;
    case 2: return -0.0;
    case 3: return start;
    case 4: return end;
    case 5: return end + rng.uniform(0.0, 50.0);  // past the horizon
    case 6: return std::nextafter(end, firelib::kNeverIgnited);
    case 7: return std::numeric_limits<double>::quiet_NaN();
    default: return rng.uniform(0.0, end);
  }
}

TEST(ScoreBurnedTest, EpilogueMatchesReferenceUnderEveryIsa) {
  // Sizes cover a partial last mask word (33x35 = 1155 cells, 3 in the
  // last word) and whole words (64x64, 96x96). avx2 resolves to scalar on
  // hosts without it, so the loop is safe everywhere.
  const simd::Isa isas[] = {simd::Isa::kScalar,
                            simd::resolve(simd::Mode::kAvx2)};
  Rng rng(15);
  for (const auto& [rows, cols] :
       {std::pair{33, 35}, std::pair{64, 64}, std::pair{96, 96}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const double start = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 40.0);
      const double end = start + rng.uniform(0.0, 60.0);
      firelib::IgnitionMap real(rows, cols, firelib::kNeverIgnited);
      firelib::IgnitionMap sim(rows, cols, firelib::kNeverIgnited);
      for (double& t : real) t = edge_time(rng, start, end);
      for (double& t : sim) t = edge_time(rng, start, end);
      const double reference = jaccard_at_reference(real, sim, end, start);
      const Grid<std::uint8_t> burned = firelib::burned_mask(sim, end);
      const std::size_t words = (sim.size() + 63) / 64;
      for (const simd::Isa isa : isas) {
        SCOPED_TRACE(::testing::Message()
                     << rows << "x" << cols << " trial " << trial << " "
                     << simd::to_string(isa));
        // Garbage in the buffer: every word must be written, padding bits
        // of the last word cleared.
        std::vector<std::uint64_t> bits(words, ~std::uint64_t{0});
        const JaccardCounts counts =
            score_burned(&real, sim, end, start, isa, bits.data());
        ASSERT_EQ(counts.index(), reference);  // bitwise, not approx
        const JaccardCounts unmasked =
            score_burned(&real, sim, end, start, isa, nullptr);
        EXPECT_EQ(unmasked.intersection, counts.intersection);
        EXPECT_EQ(unmasked.set_union, counts.set_union);
        std::vector<std::uint64_t> mask_only(words, ~std::uint64_t{0});
        const JaccardCounts none =
            score_burned(nullptr, sim, end, 0.0, isa, mask_only.data());
        EXPECT_EQ(none.intersection, 0u);
        EXPECT_EQ(none.set_union, 0u);
        EXPECT_EQ(mask_only, bits);
        for (std::size_t i = 0; i < words * 64; ++i) {
          const bool expected = i < sim.size() && burned.data()[i] != 0;
          ASSERT_EQ(((bits[i >> 6] >> (i & 63)) & 1) != 0, expected)
              << "cell " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace essns::ess
