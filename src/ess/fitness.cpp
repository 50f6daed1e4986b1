#include "ess/fitness.hpp"

#include <cmath>

#include "common/error.hpp"

#if defined(ESSNS_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace essns::ess {

double jaccard(const Grid<std::uint8_t>& real_burned,
               const Grid<std::uint8_t>& simulated_burned,
               const Grid<std::uint8_t>& preburned) {
  ESSNS_REQUIRE(real_burned.rows() == simulated_burned.rows() &&
                    real_burned.cols() == simulated_burned.cols() &&
                    real_burned.rows() == preburned.rows() &&
                    real_burned.cols() == preburned.cols(),
                "jaccard masks must share dimensions");
  std::size_t intersection = 0;
  std::size_t set_union = 0;
  const std::size_t n = real_burned.size();
  const std::uint8_t* a = real_burned.data();
  const std::uint8_t* b = simulated_burned.data();
  const std::uint8_t* pre = preburned.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i]) continue;
    const bool in_a = a[i] != 0;
    const bool in_b = b[i] != 0;
    intersection += in_a && in_b;
    set_union += in_a || in_b;
  }
  if (set_union == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(set_union);
}

namespace {

/// Scalar epilogue over cells [begin, end), `begin` a multiple of 64:
/// counts into `counts` and, when `mask` is set, the burned bits into the
/// words covering the range. Membership tests replicate burned_mask
/// (<= threshold) cell for cell, so the counts — and the quotient — equal
/// the mask-materializing reference path's.
void score_range(const double* real, const double* simulated,
                 std::size_t begin, std::size_t end, double time_min,
                 double preburned_time, JaccardCounts& counts,
                 std::uint64_t* mask) {
  std::uint64_t word = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const bool in_simulated = simulated[i] <= time_min;
    word |= std::uint64_t{in_simulated} << (i & 63);
    if ((i & 63) == 63 || i + 1 == end) {
      if (mask) mask[i >> 6] = word;
      word = 0;
    }
    if (!real || real[i] <= preburned_time) continue;  // preburned
    const bool in_real = real[i] <= time_min;
    counts.intersection += in_real && in_simulated;
    counts.set_union += in_real || in_simulated;
  }
}

#if defined(ESSNS_SIMD_X86_AVX2)

/// AVX2 epilogue over the whole 64-cell words: per 4 cells, ordered
/// `<=` compares (NaN compares false, as in the scalar loop) fold through
/// movemask into 64-bit membership words, and popcounts count them. Grid
/// buffers are 64-byte aligned and every word starts 512 bytes further
/// on, so the loads are aligned. Returns the number of cells covered.
__attribute__((target("avx2,popcnt"))) std::size_t score_words_avx2(
    const double* real, const double* simulated, std::size_t cells,
    double time_min, double preburned_time, JaccardCounts& counts,
    std::uint64_t* mask) {
  const __m256d limit = _mm256_set1_pd(time_min);
  const __m256d preburned = _mm256_set1_pd(preburned_time);
  const std::size_t words = cells / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const double* sim = simulated + w * 64;
    std::uint64_t in_simulated = 0;
    for (unsigned j = 0; j < 16; ++j) {
      const __m256d s = _mm256_load_pd(sim + 4 * j);
      in_simulated |=
          static_cast<std::uint64_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(s, limit, _CMP_LE_OQ)))
          << (4 * j);
    }
    if (mask) mask[w] = in_simulated;
    if (!real) continue;
    const double* rl = real + w * 64;
    std::uint64_t in_real = 0;
    std::uint64_t pre = 0;
    for (unsigned j = 0; j < 16; ++j) {
      const __m256d r = _mm256_load_pd(rl + 4 * j);
      in_real |= static_cast<std::uint64_t>(_mm256_movemask_pd(
                     _mm256_cmp_pd(r, limit, _CMP_LE_OQ)))
                 << (4 * j);
      pre |= static_cast<std::uint64_t>(_mm256_movemask_pd(
                 _mm256_cmp_pd(r, preburned, _CMP_LE_OQ)))
             << (4 * j);
    }
    counts.intersection += static_cast<std::size_t>(
        _mm_popcnt_u64(in_real & in_simulated & ~pre));
    counts.set_union += static_cast<std::size_t>(
        _mm_popcnt_u64((in_real | in_simulated) & ~pre));
  }
  return words * 64;
}

#endif

void check_comparison(double time_min, double preburned_time) {
  // Never-ignited cells hold kNeverIgnited (+inf); a non-finite query time
  // would count them as burned (inf <= inf) and silently skew Eq. (3). Same
  // contract as burned_mask/burned_count, so the fused kernel and the
  // mask-materializing reference agree on every input.
  ESSNS_REQUIRE(std::isfinite(time_min),
                "jaccard comparison time must be finite");
  ESSNS_REQUIRE(std::isfinite(preburned_time),
                "jaccard preburned horizon must be finite");
  ESSNS_REQUIRE(preburned_time <= time_min,
                "preburned horizon must not exceed the comparison time");
}

}  // namespace

JaccardCounts score_burned(const firelib::IgnitionMap* real_map,
                           const firelib::IgnitionMap& simulated_map,
                           double time_min, double preburned_time,
                           simd::Isa isa, std::uint64_t* mask) {
  if (real_map) {
    check_comparison(time_min, preburned_time);
    ESSNS_REQUIRE(real_map->rows() == simulated_map.rows() &&
                      real_map->cols() == simulated_map.cols(),
                  "jaccard maps must share dimensions");
  }
  JaccardCounts counts;
  const std::size_t n = simulated_map.size();
  const double* real = real_map ? real_map->data() : nullptr;
  const double* simulated = simulated_map.data();
  std::size_t done = 0;
#if defined(ESSNS_SIMD_X86_AVX2)
  if (isa == simd::Isa::kAvx2)
    done = score_words_avx2(real, simulated, n, time_min, preburned_time,
                            counts, mask);
#else
  (void)isa;
#endif
  score_range(real, simulated, done, n, time_min, preburned_time, counts,
              mask);
  return counts;
}

double jaccard_at(const firelib::IgnitionMap& real_map,
                  const firelib::IgnitionMap& simulated_map, double time_min,
                  double preburned_time) {
  return score_burned(&real_map, simulated_map, time_min, preburned_time,
                      simd::detected_isa(), nullptr)
      .index();
}

double jaccard_at_reference(const firelib::IgnitionMap& real_map,
                            const firelib::IgnitionMap& simulated_map,
                            double time_min, double preburned_time) {
  check_comparison(time_min, preburned_time);
  return jaccard(firelib::burned_mask(real_map, time_min),
                 firelib::burned_mask(simulated_map, time_min),
                 firelib::burned_mask(real_map, preburned_time));
}

}  // namespace essns::ess
