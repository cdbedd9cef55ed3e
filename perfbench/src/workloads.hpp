#pragma once

/// The benchmark's three workloads and one round of each.  A round is one
/// complete campaign of the workload's plan — cells, reduction and all.
/// Round k runs the plan under its own master seed (`round_seed`), so a
/// run averages over many distinct cells while every round stays a pure
/// function of (workload, seed, k) whose outputs can be recorded.

#include <string>
#include <vector>

#include "expt/experiment.hpp"
#include "observe.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> algorithms;
  expt::Scale scale;
  /// Driver threads running cells: `ExperimentDriver` workers, or campaign
  /// workers for the elastic workload.
  std::size_t driver_workers = 1;
  bool elastic = false;
  /// Whether each cell's front is byte-deterministic (checked by digest);
  /// otherwise cells get the structural and re-evaluation checks.
  bool deterministic = true;
};

/// The named workload; throws std::invalid_argument when unknown.
[[nodiscard]] Workload make_workload(const std::string& name);

/// Master seed of round `k`: the run's seed itself for round 0.
[[nodiscard]] std::uint64_t round_seed(std::uint64_t seed, std::size_t k);

/// The workload's plan for round `k` of a run seeded with `seed`.
[[nodiscard]] expt::ExperimentPlan plan_of(const Workload& workload,
                                           std::uint64_t seed, std::size_t k);

/// One cell as the round reports it.
struct CellOut {
  expt::RunRecord record;
  CellStats stats;
  std::string front_digest;
  std::string check;  ///< empty when the cell passed the in-process checks
};

struct RoundOut {
  std::uint64_t seed = 0;  ///< the round's master seed
  double wall_s = 0.0;
  std::string error;  ///< non-empty when the round threw
  std::string csv_digest;
  std::string fronts_digest;
  std::vector<CellOut> cells;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Runs one round.  `traced` selects the benchmark-built cell loop (or the
/// traced transports) over the plain driver path; the observer must have
/// been attached with `observe_algorithms` first.  `cache_dir` holds the
/// elastic coordinator's journal and CSV cache; it is emptied per round.
[[nodiscard]] RoundOut run_round(const Workload& workload,
                                 const expt::ExperimentPlan& plan,
                                 Observer& observer, bool traced,
                                 const std::string& cache_dir);

/// Checks of every cell's front: no point dominates another.  On the
/// non-deterministic workload also: the front is not empty, the budget was
/// consumed, and a fresh re-evaluation of every point is bit-identical.
/// (Under constraint domination a feasible point dominates every infeasible
/// one, so the first check already rejects an infeasible point beside a
/// feasible one.)  Marks failures in `CellOut::check`; runs on up
/// to `threads` threads.
void check_cells(const Workload& workload, std::vector<RoundOut>& rounds,
                 std::size_t threads);

/// FNV-1a 64 of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

}  // namespace perfbench
