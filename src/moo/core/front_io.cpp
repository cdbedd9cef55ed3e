#include "moo/core/front_io.hpp"

#include "common/line_codec.hpp"
#include "moo/core/nds.hpp"

namespace aedbmls::moo {

std::string front_to_csv(const std::vector<Solution>& front) {
  if (front.empty()) return "";
  std::string out;
  const std::size_t d = front.front().x.size();
  const std::size_t m = front.front().objectives.size();
  for (std::size_t i = 0; i < d; ++i) out += "x" + std::to_string(i) + ",";
  for (std::size_t i = 0; i < m; ++i) out += "f" + std::to_string(i) + ",";
  out += "cv\n";
  const auto cell = [&out](double value, char end) {
    codec::append_double(out, value);
    out += end;
  };
  for (const Solution& s : front) {
    for (const double v : s.x) cell(v, ',');
    for (const double v : s.objectives) cell(v, ',');
    cell(s.constraint_violation, '\n');
  }
  return out;
}

std::vector<Solution> merge_fronts(
    const std::vector<std::vector<Solution>>& fronts) {
  std::vector<Solution> all;
  for (const auto& front : fronts) {
    all.insert(all.end(), front.begin(), front.end());
  }
  return non_dominated_subset(all);
}

}  // namespace aedbmls::moo
