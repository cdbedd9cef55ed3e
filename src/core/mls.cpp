#include "core/mls.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/nds.hpp"
#include "moo/operators/blx_alpha.hpp"

namespace aedbmls::core {
namespace {

/// Canonical order for reported fronts: objectives, then violation, then
/// decision vector — all lexicographic.  The archive holds its members in
/// admission-and-eviction order; sorting makes the reported front (and the
/// `--front-out` artifacts) a function of the retained point *set* only.
bool canonical_less(const moo::Solution& a, const moo::Solution& b) {
  if (a.objectives != b.objectives) return a.objectives < b.objectives;
  if (a.constraint_violation != b.constraint_violation) {
    return a.constraint_violation < b.constraint_violation;
  }
  return a.x < b.x;
}

/// One island's shared state.  Between barriers worker `w` writes only
/// `slots[w]` and every worker reads only `snapshot`; the barrier
/// completion is the only code that reads `slots` or writes `snapshot`.
/// The barrier's release/acquire ordering publishes both directions, so no
/// lock is needed.
struct Island {
  std::vector<moo::Solution> slots;        ///< workers' current solutions
  std::vector<moo::Solution> snapshot;     ///< epoch copy teammates read
  std::vector<std::uint8_t> wants_sample;  ///< slot-indexed reset requests

  explicit Island(std::size_t size) : slots(size), wants_sample(size, 0) {}
};

/// Everything the global barrier's completion step owns: the external AGA
/// archive, its sampling RNG, every island, and one buffer per worker
/// (flat, population-major index) of solutions accepted since the last
/// phase.  Workers only append to their own buffer between barriers.
struct Epochs {
  moo::AgaArchive archive;
  Xoshiro256 rng;
  std::vector<Island> islands;
  std::vector<std::vector<moo::Solution>> pending;
  std::uint64_t inserts_accepted = 0;

  Epochs(const MlsConfig& config, std::uint64_t seed)
      : archive(config.archive_capacity, config.grid_depth),
        rng(hash_combine(seed, 0xA2C41)),
        islands(config.populations, Island(config.threads_per_population)),
        pending(config.populations * config.threads_per_population) {}

  /// Admits every buffer in canonical (island, worker, seq) order, so the
  /// archive never depends on how worker wall-times interleaved.
  void admit_pending() {
    for (std::vector<moo::Solution>& buffer : pending) {
      for (const moo::Solution& s : buffer) {
        if (archive.try_insert(s)) ++inserts_accepted;
      }
      buffer.clear();
    }
  }

  /// Barrier completion: admit the epoch's buffers, serve the reset samples
  /// in (island, slot) order, then refresh every island's snapshot.
  void on_phase() noexcept {
    admit_pending();
    for (Island& island : islands) {
      for (std::size_t slot = 0; slot < island.wants_sample.size(); ++slot) {
        if (island.wants_sample[slot] == 0) continue;
        island.wants_sample[slot] = 0;
        if (!archive.empty()) {
          island.slots[slot] = archive.sample(1, rng).front();
        }
      }
      island.snapshot = island.slots;
    }
  }
};

/// `std::barrier` requires a nothrow-invocable completion; a small functor
/// (not `std::function`) satisfies that.
struct EpochCompletion {
  Epochs* epochs;
  void operator()() noexcept { epochs->on_phase(); }
};

using EpochBarrier = std::barrier<EpochCompletion>;

/// Everything one worker thread needs; shared pieces by reference.
struct WorkerContext {
  const moo::Problem& problem;
  const MlsConfig& config;
  const std::vector<SearchCriterion>& criteria;
  Island& island;
  std::vector<moo::Solution>& pending;  ///< this worker's admission buffer
  EpochBarrier& barrier;
  const moo::EvaluationEngine& evaluator;
  std::size_t slot;     ///< this worker's slot in its population
  std::size_t budget;   ///< candidates this worker may walk
  Xoshiro256 rng;
  const moo::Solution* warm_start = nullptr;  ///< optional initial solution

  // Shared counters.
  std::atomic<std::uint64_t>& evaluations;
  std::atomic<std::uint64_t>& accepted;
  std::atomic<std::uint64_t>& rejected_infeasible;
  std::atomic<std::uint64_t>& resets;
  std::atomic<std::uint64_t>& screened;
  std::atomic<std::uint64_t>& screen_rejected;
  std::atomic<std::uint64_t>& promoted;
};

/// Initial solution: warm start if provided, otherwise random with a few
/// retries toward feasibility (the paper initialises with feasible
/// solutions; retries are capped because feasibility can be rare).
moo::Solution initialise_solution(WorkerContext& ctx) {
  if (ctx.warm_start != nullptr) {
    moo::Solution s = *ctx.warm_start;
    if (!s.evaluated) {
      ctx.problem.evaluate_into(s);
      ctx.evaluations.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  moo::Solution best;
  for (std::size_t attempt = 0;
       attempt <= ctx.config.feasible_init_retries; ++attempt) {
    moo::Solution s;
    s.x = ctx.problem.random_point(ctx.rng);
    ctx.problem.evaluate_into(s);
    ctx.evaluations.fetch_add(1, std::memory_order_relaxed);
    if (!best.evaluated ||
        s.constraint_violation < best.constraint_violation) {
      best = std::move(s);
    }
    if (best.feasible()) break;
  }
  return best;
}

/// Teammate `t`: a uniformly chosen other slot of the island's epoch
/// snapshot (single-slot islands use their own slot and consume no draw).
/// Reading the barrier-refreshed copy keeps the pick independent of how
/// live worker timings interleave.
const moo::Solution& snapshot_teammate(WorkerContext& ctx) {
  const std::vector<moo::Solution>& snap = ctx.island.snapshot;
  if (snap.size() == 1) return snap[ctx.slot];
  std::size_t pick = ctx.rng.uniform_int(snap.size() - 1);
  if (pick >= ctx.slot) ++pick;
  return snap[pick];
}

/// The local-search procedure of Fig. 3, lines 1-17, with the optional
/// racing fast path.  Both modes walk the *identical* candidate sequence
/// and make identical accept/reject decisions; racing only changes how
/// cheaply a rejection is discovered.
void worker_loop(WorkerContext ctx) {
  // Lines 1-3: initialise, evaluate, store.
  moo::Solution s = initialise_solution(ctx);
  ctx.pending.push_back(s);
  ctx.island.slots[ctx.slot] = s;

  // Line 4: wait until every population is fully initialised (the
  // completion step admits the initial solutions and takes the first
  // epoch snapshot).
  ctx.barrier.arrive_and_wait();

  const std::size_t budget = ctx.budget;
  std::size_t spent = 1;  // the initial evaluation above (at least one)
  std::size_t iteration = 0;

  // Racing state: the speculative chain and the RNG state recorded after
  // generating each entry (so an accepted move can discard the stale tail
  // and resume exactly where sequential generation would be).
  const std::size_t screen_tier =
      ctx.config.screen_moves ? ctx.problem.screening_tier() : 0;
  const std::size_t chain_limit = std::max<std::size_t>(
      1, ctx.config.screen_chain);
  std::vector<moo::Solution> chain;
  std::vector<Xoshiro256> rng_after;
  std::size_t chain_pos = 0;
  // Adaptive chain length: speculation pays only while moves keep getting
  // rejected, so start conservative and double after every fully-walked
  // chain with no accept (up to the cap); snap back to 1 on an accept.
  // Length only affects how screens are batched and how many stale-tail
  // entries an accept discards — never which candidates are walked — so
  // the trajectory (and the front) stays byte-identical to sequential.
  std::size_t chain_target = 1;
  bool grow_pending = false;

  // Lines 6-7: one speculative move from `s` (Eq. 2): teammate `t` guides
  // the perturbation magnitude, one search criterion picks the variables.
  const auto generate_candidate = [&ctx, &s](moo::Solution& out) {
    const moo::Solution& t = snapshot_teammate(ctx);
    const SearchCriterion& criterion =
        ctx.criteria[ctx.rng.uniform_int(ctx.criteria.size())];
    out.x = s.x;
    for (const std::size_t v : criterion.variables) {
      out.x[v] =
          ctx.config.symmetric_step
              ? moo::symmetric_blx_step(s.x[v], t.x[v], ctx.config.alpha,
                                        ctx.rng)
              : moo::paper_blx_step(s.x[v], t.x[v], ctx.config.alpha, ctx.rng);
    }
    ctx.problem.clamp(out.x);
  };

  // Line 5: main loop.  Budgets may differ by one across workers (remainder
  // distribution); the reset barriers still line up because a finished
  // worker's arrive_and_drop both completes the phase it is due and removes
  // it from later phases.
  while (spent < budget) {
    moo::Solution candidate;
    bool screen_says_infeasible = false;

    if (screen_tier != 0) {
      if (chain_pos >= chain.size()) {
        // The previous chain was walked to the end without an accept (or
        // this is the first): rejections are streaking, so batch harder.
        if (grow_pending) {
          chain_target = std::min(chain_limit, chain_target * 2);
        }
        grow_pending = true;
        // (Re)fill the chain.  Its length never crosses the next reset
        // boundary or the budget, so walking it in full keeps the reset
        // schedule and the spend exactly sequential.
        const std::size_t until_reset =
            ctx.config.reset_period - (iteration % ctx.config.reset_period);
        const std::size_t length =
            std::min({chain_target, until_reset, budget - spent});
        chain.assign(length, moo::Solution{});
        rng_after.assign(length, ctx.rng);
        for (std::size_t k = 0; k < length; ++k) {
          generate_candidate(chain[k]);
          chain[k].fidelity = static_cast<std::uint32_t>(screen_tier);
          rng_after[k] = ctx.rng;
        }
        // One batched conservative screen for the whole chain.
        ctx.evaluator.evaluate(ctx.problem, chain);
        ctx.screened.fetch_add(length, std::memory_order_relaxed);
        chain_pos = 0;
      }
      candidate = std::move(chain[chain_pos]);
      ++chain_pos;
      // The screen's violation is a lower bound of the full tier's, so a
      // positive value *proves* the candidate infeasible at full fidelity.
      screen_says_infeasible = candidate.constraint_violation > 0.0;
    } else {
      generate_candidate(candidate);
    }

    ++spent;
    bool was_accepted = false;

    if (screen_says_infeasible) {
      // Line 9's feasibility test, decided without a full simulation.
      ctx.screen_rejected.fetch_add(1, std::memory_order_relaxed);
      ctx.rejected_infeasible.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (screen_tier != 0) {
        // Promote the survivor: acceptance (and archive admission) is
        // decided by a full-fidelity result only — screen objectives are
        // discarded wholesale.
        candidate.objectives.clear();
        candidate.constraint_violation = 0.0;
        candidate.evaluated = false;
        candidate.fidelity = 0;
        ctx.promoted.fetch_add(1, std::memory_order_relaxed);
      }
      // Line 8: evaluate (full fidelity).
      ctx.evaluator.evaluate(ctx.problem,
                             std::span<moo::Solution>(&candidate, 1));
      ctx.evaluations.fetch_add(1, std::memory_order_relaxed);

      // Lines 9-12: accept only feasible perturbations.
      if (candidate.feasible()) {
        ctx.pending.push_back(candidate);
        s = std::move(candidate);
        ctx.island.slots[ctx.slot] = s;
        ctx.accepted.fetch_add(1, std::memory_order_relaxed);
        was_accepted = true;
      } else {
        ctx.rejected_infeasible.fetch_add(1, std::memory_order_relaxed);
      }
    }

    if (was_accepted && screen_tier != 0 && !chain.empty()) {
      // `s` changed: the rest of the chain was generated from the old `s`
      // and is stale.  Rewind the RNG to just after the accepted
      // candidate's generation — the state sequential generation would
      // have here — and drop the tail.
      ctx.rng = rng_after[chain_pos - 1];
      chain.clear();
      rng_after.clear();
      chain_pos = 0;
      // Accepts mean we are descending a basin: stop speculating ahead.
      chain_target = 1;
      grow_pending = false;
    }

    // Lines 13-16: periodic re-initialisation from the external archive.
    // The barrier completion admits this epoch's buffers, serves the
    // sample in (island, slot) order and refreshes the epoch snapshots;
    // the worker re-reads its slot after release.
    ++iteration;
    if (iteration % ctx.config.reset_period == 0 && spent < budget) {
      AEDB_REQUIRE(chain_pos >= chain.size(),
                   "speculative chain crossed a reset boundary");
      ctx.island.wants_sample[ctx.slot] = 1;
      ctx.resets.fetch_add(1, std::memory_order_relaxed);
      ctx.barrier.arrive_and_wait();
      s = ctx.island.slots[ctx.slot];
      chain.clear();
      rng_after.clear();
      chain_pos = 0;
    }
  }

  // Drop out of future barrier rounds: workers with a one-larger budget
  // (remainder distribution) may still have a reset phase to complete, and
  // this arrival both finishes the current phase and shrinks later ones.
  // The buffer is final from here on; the next completion (or the admit
  // after join) picks it up.
  ctx.barrier.arrive_and_drop();
}

}  // namespace

moo::AlgorithmResult AedbMls::run(const moo::Problem& problem,
                                  std::uint64_t seed) {
  const ElapsedTimer timer;
  AEDB_REQUIRE(config_.populations >= 1, "need at least one population");
  AEDB_REQUIRE(config_.threads_per_population >= 1, "need at least one thread");
  AEDB_REQUIRE(config_.reset_period >= 1, "reset period must be >= 1");
  AEDB_REQUIRE(config_.alpha > 0.0 && config_.alpha < 1.0,
               "alpha outside (0,1)");

  std::vector<SearchCriterion> criteria = config_.criteria;
  if (criteria.empty()) {
    criteria = all_variables_criterion(problem.dimensions());
  }
  validate_criteria(criteria, problem.dimensions());

  // Racing mode batches screens (and promotions) through an engine; a
  // pool-less fallback keeps the single code path when the caller brings
  // none.
  const moo::EvaluationEngine fallback_engine;
  const moo::EvaluationEngine& engine =
      config_.evaluator != nullptr ? *config_.evaluator : fallback_engine;

  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> resets{0};
  std::atomic<std::uint64_t> screened{0};
  std::atomic<std::uint64_t> screen_rejected{0};
  std::atomic<std::uint64_t> promoted{0};

  // One OS thread per worker (the paper's deployment maps islands to
  // cluster nodes and workers to cores), all on one barrier whose
  // completion step owns the archive and the islands.
  Epochs epochs(config_, seed);
  EpochBarrier barrier(
      static_cast<std::ptrdiff_t>(epochs.pending.size()),
      EpochCompletion{&epochs});

  std::vector<std::thread> workers;
  workers.reserve(config_.populations * config_.threads_per_population);
  for (std::size_t p = 0; p < config_.populations; ++p) {
    for (std::size_t w = 0; w < config_.threads_per_population; ++w) {
      const std::uint64_t worker_seed =
          hash_combine(hash_combine(seed, p + 1), w + 1);
      const moo::Solution* warm = nullptr;
      const std::size_t flat = p * config_.threads_per_population + w;
      if (flat < config_.initial_solutions.size()) {
        warm = &config_.initial_solutions[flat];
      }
      // Remainder distribution: the first `extra_evaluation_workers` flat
      // worker indices spend one evaluation more than the base budget.
      const std::size_t budget =
          config_.evaluations_per_thread +
          (flat < config_.extra_evaluation_workers ? 1 : 0);
      workers.emplace_back([&, p, w, flat, worker_seed, warm, budget] {
        WorkerContext ctx{problem,
                          config_,
                          criteria,
                          epochs.islands[p],
                          epochs.pending[flat],
                          barrier,
                          engine,
                          w,
                          budget,
                          Xoshiro256(worker_seed),
                          warm,
                          evaluations,
                          accepted,
                          rejected,
                          resets,
                          screened,
                          screen_rejected,
                          promoted};
        worker_loop(std::move(ctx));
      });
    }
  }
  for (std::thread& worker : workers) worker.join();
  // The last arrive_and_drop completed a phase, so the buffers are normally
  // empty here; admitting once more keeps the front independent of that.
  epochs.admit_pending();

  moo::AlgorithmResult result;
  result.front = epochs.archive.contents();
  std::sort(result.front.begin(), result.front.end(), canonical_less);

  stats_ = Stats{};
  stats_.evaluations = evaluations.load();
  stats_.accepted_moves = accepted.load();
  stats_.rejected_infeasible = rejected.load();
  stats_.resets = resets.load();
  stats_.archive_inserts_accepted = epochs.inserts_accepted;
  stats_.screened = screened.load();
  stats_.screen_rejected = screen_rejected.load();
  stats_.promoted = promoted.load();

  result.evaluations = stats_.evaluations;
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace aedbmls::core
