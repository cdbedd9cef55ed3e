#include "core/mls.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "moo/core/dominance.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/nds.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/problems/synthetic.hpp"

namespace aedbmls::core {
namespace {

MlsConfig tiny_config() {
  MlsConfig config;
  config.populations = 2;
  config.threads_per_population = 3;
  config.evaluations_per_thread = 100;
  config.reset_period = 20;
  config.alpha = 0.2;
  config.archive_capacity = 40;
  return config;
}

TEST(Mls, RunsAndReturnsNonDominatedFront) {
  const moo::MiniAedbLikeProblem problem;
  AedbMls mls(tiny_config());
  const moo::AlgorithmResult result = mls.run(problem, 1);
  ASSERT_FALSE(result.front.empty());
  for (const moo::Solution& a : result.front) {
    for (const moo::Solution& b : result.front) {
      if (&a != &b) { EXPECT_FALSE(moo::dominates(a, b)); }
    }
  }
}

TEST(Mls, EvaluationBudgetApproximatelyRespected) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 2);
  const std::size_t workers = config.populations * config.threads_per_population;
  EXPECT_GE(result.evaluations, workers * config.evaluations_per_thread);
  // Init feasibility retries may add a handful per worker.
  EXPECT_LE(result.evaluations,
            workers * (config.evaluations_per_thread +
                       config.feasible_init_retries + 1));
}

TEST(Mls, ExtraEvaluationWorkersConsumeTheRemainder) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.evaluations_per_thread = 10;
  config.extra_evaluation_workers = 4;  // declared budget 6*10 + 4 = 64
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 5);
  const std::size_t workers = config.populations * config.threads_per_population;
  const std::size_t declared =
      workers * config.evaluations_per_thread + config.extra_evaluation_workers;
  EXPECT_GE(result.evaluations, declared);
  EXPECT_LE(result.evaluations,
            declared + workers * config.feasible_init_retries);
}

TEST(Mls, StatsAreConsistent) {
  const moo::MiniAedbLikeProblem problem;
  AedbMls mls(tiny_config());
  (void)mls.run(problem, 3);
  const AedbMls::Stats& stats = mls.stats();
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_GT(stats.accepted_moves, 0u);
  EXPECT_GT(stats.resets, 0u);
  EXPECT_GT(stats.archive_inserts_accepted, 0u);
  EXPECT_LE(stats.accepted_moves + stats.rejected_infeasible, stats.evaluations);
}

TEST(Mls, ArchiveCapacityBoundsFront) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.archive_capacity = 15;
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 4);
  EXPECT_LE(result.front.size(), 15u);
}

TEST(Mls, FeasibleFrontOnConstrainedProblem) {
  const moo::MiniAedbLikeProblem problem;
  AedbMls mls(tiny_config());
  const moo::AlgorithmResult result = mls.run(problem, 5);
  // Feasible solutions exist in quantity; the archive must end feasible.
  for (const moo::Solution& s : result.front) EXPECT_TRUE(s.feasible());
}

TEST(Mls, SensitivityGuidedCriteriaOnlyTouchTheirVariables) {
  // With only the delay criterion configured, border/margin/neighbors can
  // change solely via archive resets — which copy whole solutions, so any
  // x in the final front must agree with some initial-or-perturbed lineage
  // in the untouched variables.  Weaker but robust check: runs complete and
  // produce feasible fronts.
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.criteria = {SearchCriterion{"delays", {0, 1}}};
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 6);
  EXPECT_FALSE(result.front.empty());
}

TEST(Mls, GuidedCriteriaBeatRandomBaselineOnShapedProblem) {
  const moo::MiniAedbLikeProblem problem;

  MlsConfig guided = tiny_config();
  guided.criteria = aedb_criteria();
  AedbMls mls(guided);
  const moo::AlgorithmResult result = mls.run(problem, 7);

  // Pure random sampling at the same budget.
  Xoshiro256 rng(7);
  std::vector<moo::Solution> random_points(result.evaluations);
  std::vector<moo::Solution> feasible;
  for (moo::Solution& s : random_points) {
    s.x = problem.random_point(rng);
    problem.evaluate_into(s);
    if (s.feasible()) feasible.push_back(s);
  }
  const auto random_front = moo::non_dominated_subset(feasible);

  const moo::ObjectiveBounds bounds =
      moo::bounds_of(moo::merge_fronts({result.front, random_front}));
  const double hv_mls = moo::hypervolume(
      moo::normalize_front(result.front, bounds), moo::unit_reference(3));
  const double hv_rand = moo::hypervolume(
      moo::normalize_front(random_front, bounds), moo::unit_reference(3));
  // MLS is a feasibility-driven walk feeding an archive (Fig. 3 accepts any
  // feasible move); on this easy separable toy it only needs to stay in the
  // same league as uniform sampling — the real comparisons are E4/E5/E9.
  EXPECT_GT(hv_mls, 0.5 * hv_rand);
  EXPECT_GT(hv_mls, 0.0);
}

TEST(Mls, WarmStartSolutionsAreUsed) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.evaluations_per_thread = 5;  // little time to move away
  moo::Solution seed_solution;
  seed_solution.x = {0.0, 0.2, -95.0, 0.0, 25.0};
  problem.evaluate_into(seed_solution);
  config.initial_solutions.assign(
      config.populations * config.threads_per_population, seed_solution);
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 8);
  EXPECT_FALSE(result.front.empty());
}

TEST(Mls, SymmetricStepAblationRuns) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.symmetric_step = true;
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 9);
  EXPECT_FALSE(result.front.empty());
}

TEST(Mls, SingleThreadSinglePopulationDegenerateCase) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config;
  config.populations = 1;
  config.threads_per_population = 1;
  config.evaluations_per_thread = 50;
  config.reset_period = 10;
  AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 10);
  EXPECT_FALSE(result.front.empty());
}

/// Everything one run reports: the front at full precision (`%.17g`) and
/// every `Stats` field.
std::string run_bytes(std::uint64_t seed) {
  const moo::MiniAedbLikeProblem problem;
  AedbMls mls(tiny_config());
  const moo::AlgorithmResult result = mls.run(problem, seed);
  const AedbMls::Stats& s = mls.stats();
  std::string out = moo::front_to_csv(result.front);
  for (const auto& [name, value] :
       {std::pair{"evaluations", s.evaluations},
        {"accepted_moves", s.accepted_moves},
        {"rejected_infeasible", s.rejected_infeasible},
        {"resets", s.resets},
        {"archive_inserts_accepted", s.archive_inserts_accepted},
        {"screened", s.screened},
        {"screen_rejected", s.screen_rejected},
        {"promoted", s.promoted}}) {
    out += std::string(name) + "=" + std::to_string(value) + "\n";
  }
  return out;
}

TEST(Mls, SameSeedGivesByteIdenticalFrontAndStats) {
  // Two islands of three workers with four resets each: admission from
  // six threads and cross-island reset sampling both sit inside the
  // contract.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::string first = run_bytes(seed);
    for (int repeat = 1; repeat < 12; ++repeat) {
      ASSERT_EQ(run_bytes(seed), first) << "seed " << seed << " repeat "
                                        << repeat;
    }
  }
}

TEST(Mls, ResetCountMatchesSchedule) {
  const moo::MiniAedbLikeProblem problem;
  MlsConfig config = tiny_config();
  config.evaluations_per_thread = 100;
  config.reset_period = 20;
  AedbMls mls(config);
  (void)mls.run(problem, 11);
  // Iterations per worker = 99; resets at 20, 40, 60, 80 (not at/after the
  // final iteration when the budget is exhausted).
  const std::size_t workers = config.populations * config.threads_per_population;
  EXPECT_EQ(mls.stats().resets, workers * 4u);
}

}  // namespace
}  // namespace aedbmls::core
