// 8-neighbour relax microkernel for the fast sweep paths.
//
// The fast paths' inner step is eight independent lanes of
//
//   arrival_k = top.time + travel_time[k]
//   admit_k   = fuel[n_k] != 0 && arrival_k < times[n_k]
//               && arrival_k <= horizon
//
// over cache-line-aligned SoA slabs, where travel_time is the popped
// cell's row: its fuel model's row on uniform topography, its own row on
// per-cell (DEM) topography. The kernels below evaluate all eight lanes at
// once and hand the caller an admission bitmask plus the eight arrival
// times; the caller applies the surviving lanes in ascending-k order, so
// stores and queue pushes happen in exactly the scalar loop's order. Both
// kernels perform the same IEEE additions and ordered comparisons on the
// same operands, so the mask and arrivals are bit-identical — the scalar
// kernel is the retained oracle, property-tested against the AVX2 one.
//
// The AVX2 kernel is compiled with a per-function target attribute, so this
// header builds without -mavx2 and the binary stays runnable on any x86-64:
// callers must gate on simd::cpu_supports_avx2() (see simd::resolve).
// Interior cells only — callers keep the scalar loop for border cells, whose
// neighbour probes would read out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

#if defined(ESSNS_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace essns::firelib {

/// Linear-index offsets of the 8 neighbours in kEightNeighbours order
/// (N, NE, E, SE, S, SW, W, NW) for a row-major grid with `cols` columns.
struct NeighbourOffsets {
  std::int32_t off[8];

  static NeighbourOffsets for_cols(int cols) {
    return NeighbourOffsets{{-cols, -cols + 1, 1, cols + 1,
                             cols, cols - 1, -1, -cols - 1}};
  }
};

/// Scalar relax kernel — the bit-exactness oracle. Writes the eight arrival
/// times into `arrivals` and returns the admission mask (bit k set = lane k
/// improves times[n_k] within the horizon). `fuel` may be null
/// (scenario-uniform fuels: every neighbour is burnable, or the caller's
/// travel-row probe would have bailed). `cell` must be an interior cell.
inline unsigned relax8_candidates_scalar(const double* travel_time,
                                         const double* times,
                                         const std::uint8_t* fuel,
                                         std::size_t cell,
                                         const NeighbourOffsets& offsets,
                                         double time, double horizon_min,
                                         double* arrivals) {
  unsigned mask = 0;
  for (unsigned k = 0; k < 8; ++k) {
    const std::size_t nidx =
        cell + static_cast<std::size_t>(
                   static_cast<std::ptrdiff_t>(offsets.off[k]));
    const double arrival = time + travel_time[k];
    arrivals[k] = arrival;
    if (fuel && fuel[nidx] == 0) continue;
    if (arrival < times[nidx] && arrival <= horizon_min) mask |= 1u << k;
  }
  return mask;
}

#if defined(ESSNS_SIMD_X86_AVX2)

/// AVX2 relax kernel: two 4-lane gathers pull the neighbours' current times,
/// two vector adds produce the arrivals, and ordered compares against the
/// neighbour times and the horizon fold into one admission mask. The
/// travel-time row is loaded with aligned loads — PropagationWorkspace
/// stores rows in 64-byte-aligned slabs (one 64-byte row per fuel model or
/// per DEM cell).
/// Same-lane IEEE arithmetic as the scalar kernel, bit for bit.
__attribute__((target("avx2,fma"))) inline unsigned relax8_candidates_avx2(
    const double* travel_time, const double* times, const std::uint8_t* fuel,
    std::size_t cell, const NeighbourOffsets& offsets, double time,
    double horizon_min, double* arrivals) {
  const double* center = times + cell;
  const __m128i off_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(offsets.off));
  const __m128i off_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(offsets.off + 4));
  const __m256d neigh_lo = _mm256_i32gather_pd(center, off_lo, 8);
  const __m256d neigh_hi = _mm256_i32gather_pd(center, off_hi, 8);

  const __m256d time_v = _mm256_set1_pd(time);
  const __m256d arr_lo = _mm256_add_pd(time_v, _mm256_load_pd(travel_time));
  const __m256d arr_hi =
      _mm256_add_pd(time_v, _mm256_load_pd(travel_time + 4));
  _mm256_storeu_pd(arrivals, arr_lo);
  _mm256_storeu_pd(arrivals + 4, arr_hi);

  const __m256d horizon_v = _mm256_set1_pd(horizon_min);
  const __m256d ok_lo =
      _mm256_and_pd(_mm256_cmp_pd(arr_lo, neigh_lo, _CMP_LT_OQ),
                    _mm256_cmp_pd(arr_lo, horizon_v, _CMP_LE_OQ));
  const __m256d ok_hi =
      _mm256_and_pd(_mm256_cmp_pd(arr_hi, neigh_hi, _CMP_LT_OQ),
                    _mm256_cmp_pd(arr_hi, horizon_v, _CMP_LE_OQ));
  unsigned mask =
      static_cast<unsigned>(_mm256_movemask_pd(ok_lo)) |
      (static_cast<unsigned>(_mm256_movemask_pd(ok_hi)) << 4);

  if (fuel && mask != 0) {
    unsigned burnable = 0;
    for (unsigned k = 0; k < 8; ++k) {
      const std::size_t nidx =
          cell + static_cast<std::size_t>(
                     static_cast<std::ptrdiff_t>(offsets.off[k]));
      burnable |= static_cast<unsigned>(fuel[nidx] != 0) << k;
    }
    mask &= burnable;
  }
  return mask;
}

#else

/// Non-x86 stub so call sites compile; unreachable because simd::resolve
/// never reports kAvx2 when the target macro is absent.
inline unsigned relax8_candidates_avx2(const double* travel_time,
                                       const double* times,
                                       const std::uint8_t* fuel,
                                       std::size_t cell,
                                       const NeighbourOffsets& offsets,
                                       double time, double horizon_min,
                                       double* arrivals) {
  return relax8_candidates_scalar(travel_time, times, fuel, cell, offsets,
                                  time, horizon_min, arrivals);
}

#endif  // ESSNS_SIMD_X86_AVX2

}  // namespace essns::firelib
