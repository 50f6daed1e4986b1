// Prediction-quality fitness — Eq. (3) of the paper.
//
// fitness(A, B) = |A ∩ B| / |A ∪ B|  (Jaccard index), where A is the set of
// really-burned cells and B the simulated/predicted burned cells, both
// *excluding* the cells already burned before the simulation interval started
// ("previously burned cells are not considered in order to avoid skewed
// results"). Ranges over [0,1]; 1 is a perfect prediction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/grid.hpp"
#include "common/simd.hpp"
#include "firelib/propagator.hpp"

namespace essns::ess {

/// Jaccard index between two burned masks, excluding cells marked in
/// `preburned`. Returns 1.0 when both effective sets are empty (a vacuously
/// perfect prediction) — this convention keeps early steps well-defined.
double jaccard(const Grid<std::uint8_t>& real_burned,
               const Grid<std::uint8_t>& simulated_burned,
               const Grid<std::uint8_t>& preburned);

/// Eq. (3) intersection and union counts of one comparison.
struct JaccardCounts {
  std::size_t intersection = 0;
  std::size_t set_union = 0;

  /// |A ∩ B| / |A ∪ B|; 1.0 when the union is empty (see jaccard).
  double index() const {
    if (set_union == 0) return 1.0;
    return static_cast<double>(intersection) /
           static_cast<double>(set_union);
  }
};

/// The per-simulation epilogue, one pass over `simulated_map`:
///  - when `real_map` is non-null, the Eq. (3) counts of the cells each map
///    ignited by `time_min`, excluding cells `real_map` ignited by
///    `preburned_time` (the jaccard_at comparison);
///  - when `mask` is non-null, the burned set of `simulated_map` at
///    `time_min` bit-packed into (size + 63) / 64 words (bit i % 64 of word
///    i / 64 = cell i, row-major; preburned cells included).
/// With a null `real_map` only the mask is written and the counts are 0;
/// the mask then follows aggregate_probability's `t <= time_min` for any
/// `time_min`. With a `real_map` the arguments are checked as jaccard_at
/// checks them. `isa` selects the scalar loop or the AVX2 kernel (64
/// cells per mask word from cmp_pd + movemask, a scalar tail for the last
/// partial word); both return the same integers and the same mask bits.
JaccardCounts score_burned(const firelib::IgnitionMap* real_map,
                           const firelib::IgnitionMap& simulated_map,
                           double time_min, double preburned_time,
                           simd::Isa isa, std::uint64_t* mask);

/// Convenience for ignition-time maps: compares cells ignited by
/// `time_min`, excluding cells already ignited by `preburned_time` in the
/// real map (the fire state when the simulation started).
///
/// score_burned on this host's detected ISA, without a mask: the counts
/// come straight from the two ignition-time maps with zero allocations.
/// Bit-identical to jaccard_at_reference (tested).
double jaccard_at(const firelib::IgnitionMap& real_map,
                  const firelib::IgnitionMap& simulated_map, double time_min,
                  double preburned_time);

/// Pre-optimization jaccard_at: materializes the three burned_mask grids and
/// calls jaccard. Kept as the oracle the fused kernel is tested and
/// benchmarked against.
double jaccard_at_reference(const firelib::IgnitionMap& real_map,
                            const firelib::IgnitionMap& simulated_map,
                            double time_min, double preburned_time);

}  // namespace essns::ess
