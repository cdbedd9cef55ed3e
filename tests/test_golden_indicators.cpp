/// Golden-value regression pins: the exact indicator-CSV bytes of one
/// campaign cell per catalog regime, captured from the hash-map statistics
/// path before the SoA (flat NodeId-indexed) rewrite.  The flat path must
/// reproduce these byte-for-byte — any drift means the statistics rewrite
/// (or anything upstream of it) changed simulated behaviour, not just its
/// storage layout.  A second cell per regime pins the paper's AEDB-MLS:
/// its indicator CSV and its reference-front bytes.
///
/// Regenerate after an *intentional* behaviour change with:
///   AEDB_REGENERATE_GOLDEN=1 ./test_golden_indicators
/// which rewrites tests/golden/{indicators,mls_indicators,mls_front}_<regime>.csv
/// in the source tree.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "expt/experiment.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/front_io.hpp"

namespace aedbmls::expt {
namespace {

/// One cheap cell: a single Random-search run on a single evaluation
/// network.  Random search exercises the full simulation hot path (16
/// spread-out candidates per regime) without an optimiser's own state
/// muddying attribution.
Scale golden_scale(const std::string& scenario) {
  Scale scale;
  scale.name = "golden";
  scale.networks = 1;
  scale.runs = 1;
  scale.evals = 16;
  scale.scenarios = {scenario};
  scale.seed = 20130520;
  return scale;
}

/// One AEDB-MLS cell: 2 islands x 2 threads and 204 evaluations, i.e. 51
/// per worker, so every worker crosses the 50-iteration reset and
/// re-seeds from the archive the global barrier built.
Scale mls_golden_scale(const std::string& scenario) {
  Scale scale = golden_scale(scenario);
  scale.evals = 204;
  scale.mls_populations = 2;
  scale.mls_threads = 2;
  return scale;
}

std::string golden_path(const std::string& prefix, const std::string& scenario) {
  return std::string(AEDB_GOLDEN_DIR) + "/" + prefix + "_" + scenario + ".csv";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream data;
  data << in.rdbuf();
  return data.str();
}

ExperimentResult run_cell(const std::string& algorithm, const Scale& scale) {
  ExperimentDriver::Options options;
  options.workers = 1;
  options.use_cache = false;
  options.verbose = false;
  options.collect_records = true;
  return ExperimentDriver(options).run(ExperimentPlan::of({algorithm}, scale));
}

/// Compares `bytes` with the golden file at `path`, or rewrites the file
/// when AEDB_REGENERATE_GOLDEN is set.
void expect_pinned(const std::string& bytes, const std::string& path) {
  if (std::getenv("AEDB_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  const auto golden = read_file(path);
  ASSERT_TRUE(golden.has_value())
      << path << " missing — run AEDB_REGENERATE_GOLDEN=1 to create it";
  EXPECT_EQ(bytes, *golden) << path << " drifted from the pinned bytes";
}

class GoldenIndicators : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenIndicators, CellCsvBytesArePinned) {
  const std::string scenario = GetParam();
  const ExperimentResult result = run_cell("Random", golden_scale(scenario));
  expect_pinned(indicator_csv(result.samples),
                golden_path("indicators", scenario));
}

TEST_P(GoldenIndicators, MlsCellCsvAndReferenceFrontBytesArePinned) {
  const std::string scenario = GetParam();
  const ExperimentResult result =
      run_cell("AEDB-MLS", mls_golden_scale(scenario));
  expect_pinned(indicator_csv(result.samples),
                golden_path("mls_indicators", scenario));
  expect_pinned(moo::front_to_csv(reference_front(result.records, scenario)),
                golden_path("mls_front", scenario));
}

INSTANTIATE_TEST_SUITE_P(
    EveryCatalogRegime, GoldenIndicators,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace aedbmls::expt
