#include "workloads.hpp"

#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/campaign_service.hpp"
#include "moo/core/dominance.hpp"
#include "moo/core/front_io.hpp"
#include "par/thread_pool.hpp"

namespace perfbench {
namespace {

expt::ExperimentDriver::Options driver_options(std::size_t workers) {
  expt::ExperimentDriver::Options options;
  options.workers = workers;
  options.use_cache = false;
  options.collect_records = true;
  options.eval_threads = 0;
  options.verbose = false;
  return options;
}

/// The traced loop for the driver workloads: the cells `ExperimentDriver`
/// would run, built by benchmark code so each call into a layer is a span.
void run_traced_cells(const Workload& workload,
                      const expt::ExperimentPlan& plan, Observer& observer,
                      std::vector<expt::RunRecord>& records,
                      std::vector<expt::IndicatorSample>& samples) {
  const std::vector<expt::ExperimentPlan::Cell> cells = plan.cells();
  records.assign(cells.size(), {});
  std::vector<std::string> errors(cells.size());
  {
    par::ThreadPool pool(workload.driver_workers);
    pool.parallel_for(cells.size(), [&](std::size_t i) {
      const expt::ExperimentPlan::Cell& cell = cells[i];
      const std::string key = cell_key(cell.algorithm, cell.seed);
      observer.open_cell(key);
      try {
        const expt::ScenarioSpec spec =
            expt::ScenarioCatalog::instance().resolve(cell.scenario);
        const aedb::AedbTuningProblem problem(spec.problem_config(plan.scale));
        // One pool-less engine per cell, as the driver's serial engine
        // behaves, so engine counters are per cell.
        const moo::EvaluationEngine engine;
        auto algorithm = expt::AlgorithmRegistry::instance().create(
            cell.algorithm, plan.scale, &engine);
        const moo::AlgorithmResult result = algorithm->run(problem, cell.seed);
        expt::RunRecord& record = records[i];
        record.algorithm = cell.algorithm;
        record.scenario = cell.scenario;
        record.run_seed = cell.seed;
        record.front = result.front;
        record.evaluations = result.evaluations;
        record.wall_seconds = result.wall_seconds;
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
      observer.close_cell(key);
    });
  }
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  const std::int64_t start = now_ns();
  samples = expt::reduce_to_samples(plan, records);
  observer.record_interval(SpanKind::kReduce, start, now_ns());
}

/// One elastic campaign: a coordinator on this thread and the workload's
/// campaign workers on their own threads, over an in-process world.
void run_elastic(const Workload& workload, const expt::ExperimentPlan& plan,
                 Observer& observer, const std::string& cache_dir,
                 std::vector<expt::RunRecord>& records,
                 std::vector<expt::IndicatorSample>& samples) {
  // A fresh cache per round: a stored CSV would turn the next round into a
  // cache hit.
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  const std::vector<expt::ExperimentPlan::Cell> cells = plan.cells();
  par::net::InProcWorld world(1 + workload.driver_workers);
  std::vector<std::unique_ptr<ObservedTransport>> endpoints;
  for (std::size_t rank = 0; rank < world.size(); ++rank) {
    endpoints.push_back(std::make_unique<ObservedTransport>(
        world.endpoint(rank), observer, cells));
  }

  expt::CampaignWorkerOptions worker_options;
  worker_options.driver = driver_options(1);
  worker_options.driver.collect_records = false;
  std::vector<std::exception_ptr> failures(workload.driver_workers);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < workload.driver_workers; ++w) {
    workers.emplace_back([&, w] {
      try {
        (void)expt::run_campaign_worker(plan, *endpoints[w + 1],
                                        worker_options);
      } catch (...) {
        failures[w] = std::current_exception();
      }
    });
  }

  expt::CampaignCoordinatorOptions coordinator_options;
  coordinator_options.driver = driver_options(1);
  coordinator_options.driver.use_cache = true;
  coordinator_options.driver.cache_dir = cache_dir;
  coordinator_options.journal = true;
  std::exception_ptr coordinator_failure;
  expt::ExperimentResult result;
  try {
    result = expt::run_campaign_coordinator(plan, *endpoints[0],
                                            coordinator_options);
  } catch (...) {
    coordinator_failure = std::current_exception();
    endpoints[0]->close();
  }
  for (std::thread& worker : workers) worker.join();
  if (coordinator_failure) std::rethrow_exception(coordinator_failure);
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  records = std::move(result.records);
  samples = std::move(result.samples);

  // The coordinator reduces internally, out of reach of a span; replay the
  // same reduction over the same records to time it.
  if (observer.tracing()) {
    const std::int64_t start = now_ns();
    (void)expt::reduce_to_samples(plan, records);
    observer.record_interval(SpanKind::kReduce, start, now_ns());
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string bytes_of(const std::vector<double>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(double));
}

}  // namespace

std::string digest(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

Workload make_workload(const std::string& name) {
  Workload workload;
  workload.name = name;
  expt::Scale& scale = workload.scale;  // the smoke preset
  if (name == "mls-d200") {
    workload.algorithms = {"AEDB-MLS"};
    scale.scenarios = {"d200"};
    scale.runs = 2;
    scale.evals = 60;
    scale.mls_populations = 2;
    scale.mls_threads = 2;
    workload.driver_workers = 1;
    workload.deterministic = false;
  } else if (name == "moea-grid") {
    workload.algorithms = {"NSGAII", "CellDE"};
    scale.scenarios = {"d100", "sparse-wide"};
    scale.runs = 3;
    workload.driver_workers = 4;
  } else if (name == "elastic-race") {
    workload.algorithms = {"AEDB-MLS"};
    scale.scenarios = {"deadline-tight"};
    // Nine cells per round keep the three workers busy past the odd costly
    // cell, so a round does not wait on its slowest cell with two workers
    // idle, and a run holds enough cells for the share of costly (feasible
    // start) cells to settle.
    scale.runs = 9;
    scale.evals = 12;
    scale.mls_populations = 1;
    scale.mls_threads = 1;
    scale.fidelity = "race";
    workload.driver_workers = 3;
    workload.elastic = true;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (expected mls-d200, moea-grid or elastic-race)");
  }
  return workload;
}

std::uint64_t round_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : aedbmls::hash_combine(seed, k);
}

expt::ExperimentPlan plan_of(const Workload& workload, std::uint64_t seed,
                             std::size_t k) {
  expt::Scale scale = workload.scale;
  scale.seed = round_seed(seed, k);
  return expt::ExperimentPlan::of(workload.algorithms, scale);
}

RoundOut run_round(const Workload& workload, const expt::ExperimentPlan& plan,
                   Observer& observer, bool traced,
                   const std::string& cache_dir) {
  RoundOut out;
  out.seed = plan.scale.seed;
  (void)observer.take_cells();
  (void)observer.take_traffic();
  std::vector<expt::RunRecord> records;
  std::vector<expt::IndicatorSample> samples;
  const std::int64_t start = now_ns();
  try {
    if (workload.elastic) {
      run_elastic(workload, plan, observer, cache_dir, records, samples);
    } else if (traced) {
      run_traced_cells(workload, plan, observer, records, samples);
    } else {
      const expt::ExperimentDriver driver(
          driver_options(workload.driver_workers));
      expt::ExperimentResult result = driver.run(plan);
      records = std::move(result.records);
      samples = std::move(result.samples);
    }
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  std::tie(out.messages, out.bytes) = observer.take_traffic();
  std::vector<CellStats> stats = observer.take_cells();
  if (!out.error.empty()) return out;
  if (records.size() != plan.cell_count()) {
    out.error = "round returned " + std::to_string(records.size()) +
                " records for " + std::to_string(plan.cell_count()) + " cells";
    return out;
  }

  out.csv_digest = digest(expt::indicator_csv(samples));
  std::string fronts;
  for (const std::string& scenario : plan.scenarios) {
    fronts += scenario + "\n" +
              moo::front_to_csv(expt::reference_front(records, scenario));
  }
  out.fronts_digest = digest(fronts);

  std::map<std::string, CellStats> by_key;
  for (CellStats& cell : stats) {
    const std::string key = cell_key(cell.algorithm, cell.seed);
    by_key[key] = std::move(cell);
  }
  for (expt::RunRecord& record : records) {
    CellOut cell;
    cell.front_digest = digest(moo::front_to_csv(record.front));
    const auto it = by_key.find(cell_key(record.algorithm, record.run_seed));
    if (it == by_key.end()) {
      cell.check = "cell ran unobserved";
    } else {
      cell.stats = it->second;
    }
    cell.record = std::move(record);
    out.cells.push_back(std::move(cell));
  }
  return out;
}

void check_cells(const Workload& workload, std::vector<RoundOut>& rounds,
                 std::size_t threads) {
  const auto fail = [](CellOut& cell, const std::string& why) {
    if (cell.check.empty()) cell.check = why;
  };

  // Jobs for the re-evaluation, one per distinct (round seed, scenario,
  // point): the round seed fixes the evaluation networks.
  struct Job {
    std::uint64_t seed;
    std::string scenario;
    std::vector<double> x;
  };
  const auto job_key = [](std::uint64_t seed, const std::string& scenario,
                          const std::vector<double>& x) {
    return std::to_string(seed) + "|" + scenario + "|" + bytes_of(x);
  };
  std::map<std::string, std::size_t> job_of;
  std::vector<Job> jobs;
  for (RoundOut& round : rounds) {
    for (CellOut& cell : round.cells) {
      const std::vector<moo::Solution>& front = cell.record.front;
      for (std::size_t i = 0; i < front.size(); ++i) {
        for (std::size_t j = 0; j < front.size(); ++j) {
          if (i != j && moo::dominates(front[i], front[j])) {
            fail(cell, "front point " + std::to_string(j) +
                           " is dominated by point " + std::to_string(i));
          }
        }
      }
      if (workload.deterministic) continue;
      if (front.empty()) fail(cell, "empty front");
      const std::uint64_t candidates =
          cell.stats.full_evals + cell.stats.mls_stats.screen_rejected;
      if (candidates < workload.scale.mls_total_evaluations()) {
        fail(cell, "budget not consumed: " + std::to_string(candidates) +
                       " of " +
                       std::to_string(workload.scale.mls_total_evaluations()) +
                       " candidates");
      }
      for (const moo::Solution& point : front) {
        const std::string key = job_key(round.seed, cell.record.scenario, point.x);
        if (job_of.emplace(key, jobs.size()).second) {
          jobs.push_back({round.seed, cell.record.scenario, point.x});
        }
      }
    }
  }
  if (jobs.empty()) return;

  std::map<std::string, std::unique_ptr<aedb::AedbTuningProblem>> problems;
  const auto problem_key = [](const Job& job) {
    return std::to_string(job.seed) + "|" + job.scenario;
  };
  for (const Job& job : jobs) {
    std::unique_ptr<aedb::AedbTuningProblem>& problem = problems[problem_key(job)];
    if (problem == nullptr) {
      expt::Scale scale = workload.scale;
      scale.seed = job.seed;
      problem = std::make_unique<aedb::AedbTuningProblem>(
          expt::ScenarioCatalog::instance().resolve(job.scenario).problem_config(
              scale));
    }
  }
  std::vector<moo::Problem::Result> fresh(jobs.size());
  {
    par::ThreadPool pool(threads);
    pool.parallel_for(jobs.size(), [&](std::size_t i) {
      fresh[i] = problems.at(problem_key(jobs[i]))->evaluate(jobs[i].x);
    });
  }
  for (RoundOut& round : rounds) {
    for (CellOut& cell : round.cells) {
      for (const moo::Solution& point : cell.record.front) {
        const auto it =
            job_of.find(job_key(round.seed, cell.record.scenario, point.x));
        if (it == job_of.end()) continue;
        const moo::Problem::Result& again = fresh[it->second];
        bool same = again.objectives.size() == point.objectives.size() &&
                    same_bits(again.constraint_violation,
                              point.constraint_violation);
        for (std::size_t k = 0; same && k < point.objectives.size(); ++k) {
          same = same_bits(again.objectives[k], point.objectives[k]);
        }
        if (!same) fail(cell, "re-evaluation differs from the front point");
      }
    }
  }
}

}  // namespace perfbench
