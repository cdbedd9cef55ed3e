#pragma once

/// Pareto-front serialisation and merging.

#include <string>
#include <vector>

#include "moo/core/solution.hpp"

namespace aedbmls::moo {

/// Serialises a front as CSV: x0..x{d-1}, f0..f{m-1}, cv, every value
/// `%.17g` (the line codec's exact binary64 round trip).
[[nodiscard]] std::string front_to_csv(const std::vector<Solution>& front);

/// Merges several fronts into their combined non-dominated set — the paper's
/// "Reference Pareto front" construction (best of all runs/algorithms).
[[nodiscard]] std::vector<Solution> merge_fronts(
    const std::vector<std::vector<Solution>>& fronts);

}  // namespace aedbmls::moo
