/// Campaign journals and the two ways of distributing a campaign over
/// them.  The elastic service over an in-process transport world: the
/// pull scheduler reproduces the single-driver indicator samples and CSV
/// bitwise, requeues a dead worker's cells, fails loudly when the whole
/// fleet departs, rejects fingerprint-mismatched workers, resumes from
/// its crash journal, and warms worker caches.  Offline sharding: the
/// strided shard partition, and a `--shard`/`--merge` round trip through
/// shard journals that reproduces the unsharded campaign bitwise and
/// rejects foreign, missing, duplicate and contradictory shards by name.
/// The cell-block codec the wire and the journals ride on round-trips
/// bitwise.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.hpp"
#include "expt/campaign_service.hpp"
#include "expt/experiment.hpp"
#include "expt/journal.hpp"
#include "moo/core/front_io.hpp"
#include "par/net/transport.hpp"

namespace aedbmls::expt {
namespace {

using namespace std::chrono_literals;

Scale tiny_scale() {
  Scale scale;
  scale.networks = 1;
  scale.runs = 2;
  scale.evals = 24;
  scale.seed = 4242;
  scale.scenarios = {"d100", "static-grid"};
  return scale;
}

/// Deterministic generational contenders (AEDB-MLS races on its archive by
/// design, so campaign-level bitwise guarantees use the others).
ExperimentPlan tiny_plan() {
  return ExperimentPlan::of({"NSGAII", "Random"}, tiny_scale());
}

ExperimentDriver::Options quiet(std::size_t workers) {
  ExperimentDriver::Options options;
  options.workers = workers;
  options.use_cache = false;
  options.verbose = false;
  return options;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "aedbmls_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

void expect_identical(const std::vector<IndicatorSample>& a,
                      const std::vector<IndicatorSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].algorithm, b[i].algorithm) << i;
    EXPECT_EQ(a[i].scenario, b[i].scenario) << i;
    EXPECT_EQ(a[i].run_seed, b[i].run_seed) << i;
    EXPECT_EQ(a[i].front_size, b[i].front_size) << i;
    // Bitwise, not approximate: distribution must not change results.
    EXPECT_EQ(a[i].hypervolume, b[i].hypervolume) << i;
    EXPECT_EQ(a[i].igd, b[i].igd) << i;
    EXPECT_EQ(a[i].spread, b[i].spread) << i;
  }
}

/// One worker's outcome: its report, or the error it died with.
struct WorkerRun {
  WorkerReport report;
  std::string error;
};

WorkerRun drive_worker(const ExperimentPlan& plan,
                       par::net::Transport& transport,
                       CampaignWorkerOptions options) {
  WorkerRun run;
  try {
    run.report = run_campaign_worker(plan, transport, options);
  } catch (const std::exception& error) {
    run.error = error.what();
  }
  return run;
}

/// The unsharded ground truth: a plain driver run caching into `dir`.
ExperimentResult reference_run(const ExperimentPlan& plan,
                               const std::string& dir) {
  ExperimentDriver::Options options = quiet(2);
  options.use_cache = true;
  options.cache_dir = dir;
  return ExperimentDriver(options).run(plan);
}

TEST(CampaignService, ElasticRunMatchesDriverBitwise) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("elastic_ref");
  const std::string elastic_dir = scratch_dir("elastic_run");
  const auto reference = reference_run(plan, ref_dir);

  par::net::InProcWorld world(4);
  std::vector<WorkerRun> runs(3);
  std::vector<std::thread> threads;
  for (std::size_t r = 1; r <= 3; ++r) {
    threads.emplace_back([&world, &runs, &plan, r] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      runs[r - 1] = drive_worker(plan, world.endpoint(r), options);
    });
  }
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = elastic_dir;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(result.from_cache);
  expect_identical(result.samples, reference.samples);
  const std::string ref_csv = slurp(indicator_csv_path(ref_dir, plan));
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)), ref_csv);
  std::size_t total_cells = 0;
  for (const WorkerRun& run : runs) {
    EXPECT_TRUE(run.error.empty()) << run.error;
    total_cells += run.report.cells_completed;
  }
  EXPECT_EQ(total_cells, plan.cell_count());
  // The journal must not outlive a successful campaign.
  EXPECT_FALSE(
      std::filesystem::exists(campaign_journal_path(elastic_dir, plan)));
}

TEST(CampaignService, DeadWorkerCellsAreRequeuedByteIdentical) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("requeue_ref");
  const std::string elastic_dir = scratch_dir("requeue_run");
  const auto reference = reference_run(plan, ref_dir);

  par::net::InProcWorld world(3);
  std::vector<WorkerRun> runs(2);
  std::thread dying([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.max_cells = 1;  // complete one cell, then abandon the next
    runs[0] = drive_worker(plan, world.endpoint(1), options);
  });
  std::thread survivor([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[1] = drive_worker(plan, world.endpoint(2), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = elastic_dir;
  coordinator.journal = false;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  dying.join();
  survivor.join();

  expect_identical(result.samples, reference.samples);
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)),
            slurp(indicator_csv_path(ref_dir, plan)));
  EXPECT_EQ(runs[0].report.cells_completed, 1u);
  // The survivor absorbed the rest, including the requeued abandonment.
  EXPECT_EQ(runs[1].report.cells_completed, plan.cell_count() - 1);
}

TEST(CampaignService, AllWorkersDepartedFailsLoudly) {
  const auto plan = tiny_plan();
  par::net::InProcWorld world(2);
  WorkerRun run;
  std::thread worker([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.max_cells = 2;
    run = drive_worker(plan, world.endpoint(1), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  try {
    (void)run_campaign_coordinator(plan, world.endpoint(0), coordinator);
    FAIL() << "a fully departed fleet must fail the campaign";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("workers departed"), std::string::npos) << what;
    EXPECT_NE(what.find("cells incomplete"), std::string::npos) << what;
  }
  worker.join();
  EXPECT_EQ(run.report.cells_completed, 2u);
}

TEST(CampaignService, FingerprintMismatchIsRejected) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("reject_ref");
  const auto reference = reference_run(plan, ref_dir);

  Scale other_scale = tiny_scale();
  other_scale.seed = 777;  // different fingerprint, same grid shape
  const auto other_plan = ExperimentPlan::of({"NSGAII", "Random"}, other_scale);
  ASSERT_NE(plan.fingerprint(), other_plan.fingerprint());

  par::net::InProcWorld world(3);
  std::vector<WorkerRun> runs(2);
  std::thread mismatched([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[0] = drive_worker(other_plan, world.endpoint(1), options);
  });
  std::thread matching([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[1] = drive_worker(plan, world.endpoint(2), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  mismatched.join();
  matching.join();

  EXPECT_NE(runs[0].error.find("fingerprint mismatch"), std::string::npos)
      << runs[0].error;
  EXPECT_TRUE(runs[1].error.empty()) << runs[1].error;
  EXPECT_EQ(runs[1].report.cells_completed, plan.cell_count());
  expect_identical(result.samples, reference.samples);
}

TEST(CampaignService, JournalResumesACrashedCampaign) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("journal_ref");
  const std::string dir = scratch_dir("journal_run");
  const auto reference = reference_run(plan, ref_dir);
  const std::string journal = campaign_journal_path(dir, plan);

  // Round 1: the only worker abandons after 3 cells, failing the
  // campaign — but the journal keeps what was finished.
  {
    par::net::InProcWorld world(2);
    WorkerRun run;
    std::thread worker([&] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      options.max_cells = 3;
      run = drive_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions coordinator;
    coordinator.driver = quiet(1);
    coordinator.driver.use_cache = true;
    coordinator.driver.cache_dir = dir;
    EXPECT_THROW(
        (void)run_campaign_coordinator(plan, world.endpoint(0), coordinator),
        std::runtime_error);
    worker.join();
    EXPECT_EQ(run.report.cells_completed, 3u);
  }
  ASSERT_TRUE(std::filesystem::exists(journal));

  // Round 2: a fresh coordinator replays the journal and schedules only
  // the remaining cells.
  {
    par::net::InProcWorld world(2);
    WorkerRun run;
    std::thread worker([&] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      run = drive_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions coordinator;
    coordinator.driver = quiet(1);
    coordinator.driver.use_cache = true;
    coordinator.driver.cache_dir = dir;
    const auto result =
        run_campaign_coordinator(plan, world.endpoint(0), coordinator);
    worker.join();

    EXPECT_EQ(run.report.cells_completed, plan.cell_count() - 3);
    expect_identical(result.samples, reference.samples);
    EXPECT_EQ(slurp(indicator_csv_path(dir, plan)),
              slurp(indicator_csv_path(ref_dir, plan)));
  }
  EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(CampaignService, WarmUpShipsTheCachedCsvToWorkers) {
  const auto plan = tiny_plan();
  const std::string coord_dir = scratch_dir("warm_coord");
  const std::string worker_dir = scratch_dir("warm_worker");
  (void)reference_run(plan, coord_dir);  // populates the coordinator cache

  par::net::InProcWorld world(2);
  WorkerRun run;
  std::thread worker([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.driver.use_cache = true;
    options.driver.cache_dir = worker_dir;
    run = drive_worker(plan, world.endpoint(1), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = coord_dir;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  worker.join();

  // Cache hit: nothing scheduled, and the worker's cache is now warm with
  // the identical bytes.
  EXPECT_TRUE(result.from_cache);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_EQ(run.report.cells_completed, 0u);
  const std::string coordinator_csv = slurp(indicator_csv_path(coord_dir, plan));
  ASSERT_FALSE(coordinator_csv.empty());
  EXPECT_EQ(slurp(indicator_csv_path(worker_dir, plan)), coordinator_csv);
}

TEST(CampaignService, CostPriorsComeFromScenarioWallGauges) {
  telemetry::Snapshot snapshot;
  snapshot.gauges["scenario.d100.wall_s"].observe(2.0);
  snapshot.gauges["scenario.d100.wall_s"].observe(4.0);
  snapshot.gauges["scenario.urban-canyon.wall_s"].observe(9.5);
  snapshot.gauges["cell.wall_s"].observe(1.0);        // not a scenario gauge
  snapshot.gauges["scenario.empty.wall_s"];           // zero observations
  const auto priors = cost_priors_from_snapshot(snapshot);
  ASSERT_EQ(priors.size(), 2u);
  EXPECT_DOUBLE_EQ(priors.at("d100"), 3.0);
  EXPECT_DOUBLE_EQ(priors.at("urban-canyon"), 9.5);
}

TEST(CampaignService, CellResultCodecRoundTripsBitwise) {
  CellResult original;
  original.index = 5;
  original.record.algorithm = "NSGAII";
  original.record.scenario = "d100";
  original.record.run_seed = 0xDEADBEEFu;
  original.record.evaluations = 24;
  original.record.wall_seconds = 0.12345678901234567;
  original.record.telemetry.counters["evaluations"] = 24;
  original.record.telemetry.gauges["cell.wall_s"].observe(0.125);
  moo::Solution solution;
  solution.objectives = {0.25, -1.0 / 3.0, 7.0};
  solution.x = {0.1, 0.2, 0.3, 0.4, 0.5};
  solution.constraint_violation = 0.0;
  solution.evaluated = true;
  original.record.front = {solution, solution};

  const std::string block = encode_cell_result(original);
  const CellResult decoded = decode_cell_result(block, /*total_cells=*/8);
  EXPECT_EQ(decoded.index, original.index);
  EXPECT_EQ(decoded.record.algorithm, original.record.algorithm);
  EXPECT_EQ(decoded.record.scenario, original.record.scenario);
  EXPECT_EQ(decoded.record.run_seed, original.record.run_seed);
  EXPECT_EQ(decoded.record.evaluations, original.record.evaluations);
  EXPECT_EQ(decoded.record.wall_seconds, original.record.wall_seconds);
  EXPECT_EQ(decoded.record.telemetry, original.record.telemetry);
  ASSERT_EQ(decoded.record.front.size(), 2u);
  for (const moo::Solution& point : decoded.record.front) {
    EXPECT_EQ(point.objectives, solution.objectives);
    EXPECT_EQ(point.x, solution.x);
    EXPECT_EQ(point.constraint_violation, solution.constraint_violation);
  }

  // Malformed blocks are rejected, never mis-decoded.
  EXPECT_THROW((void)decode_cell_result(block, /*total_cells=*/5),
               std::invalid_argument);  // index out of range
  EXPECT_THROW((void)decode_cell_result(block.substr(0, block.size() / 2), 8),
               std::invalid_argument);  // truncated mid-block
  EXPECT_THROW((void)decode_cell_result(block + "trailing\n", 8),
               std::invalid_argument);  // trailing garbage
  // Unsigned fields parse whole tokens, digits only: a negative run seed
  // or evaluation count is an error, never a wrapped 2^64-1.
  const std::size_t cell_line_end = block.find('\n');
  for (const std::size_t field : {std::size_t{2}, std::size_t{3}}) {
    std::istringstream cell_line(block.substr(0, cell_line_end));
    std::vector<std::string> tokens;
    for (std::string token; cell_line >> token;) tokens.push_back(token);
    tokens[field] = "-1";
    std::string tampered;
    for (const std::string& token : tokens) {
      tampered += (tampered.empty() ? "" : " ") + token;
    }
    tampered += block.substr(cell_line_end);
    EXPECT_THROW((void)decode_cell_result(tampered, 8), std::invalid_argument)
        << tampered;
  }
}

// ---------------------------------------------------------------------------
// Offline sharding: --shard=i/N writes shard journals, --merge replays them

/// Runs every cell of `plan` sharded `count` ways via run_cells and
/// writes each shard's journal under `dir`.
void write_shards(const ExperimentPlan& plan, std::size_t count,
                  const std::string& dir) {
  for (std::size_t index = 0; index < count; ++index) {
    const auto cells = cells_for_shard(plan, index, count);
    auto records = ExperimentDriver(quiet(2)).run_cells(plan, cells);
    std::vector<CellResult> results;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results.push_back(CellResult{cells[i].index, std::move(records[i])});
    }
    (void)write_shard_journal(dir, plan, index, count, results);
  }
}

/// The message `merge_campaign` rejects `dir` with ("" if it merges).
std::string merge_error(const ExperimentPlan& plan, const std::string& dir) {
  auto options = quiet(1);
  options.cache_dir = dir + "_merged";
  try {
    (void)merge_campaign(plan, dir, options);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(CellsForShard, StridedPartitionIsExactAndDeterministic) {
  const ExperimentPlan plan = tiny_plan();
  const auto cells = plan.cells();
  for (const std::size_t count : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<bool> seen(cells.size(), false);
    for (std::size_t index = 0; index < count; ++index) {
      const auto shard = cells_for_shard(plan, index, count);
      // Balanced to within one cell.
      EXPECT_LE(shard.size(), cells.size() / count + 1);
      for (const auto& cell : shard) {
        EXPECT_EQ(cell.index % count, index);  // strided assignment
        EXPECT_FALSE(seen[cell.index]);
        seen[cell.index] = true;
        // The shard cell is the plan cell, verbatim.
        EXPECT_EQ(cell.algorithm, cells[cell.index].algorithm);
        EXPECT_EQ(cell.scenario, cells[cell.index].scenario);
        EXPECT_EQ(cell.seed, cells[cell.index].seed);
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "cell " << i << " unassigned at " << count
                           << " shards";
    }
  }
}

TEST(CellsForShard, RejectsInvalidShardCoordinates) {
  const ExperimentPlan plan = tiny_plan();
  EXPECT_THROW((void)cells_for_shard(plan, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)cells_for_shard(plan, 3, 3), std::invalid_argument);
}

TEST(ShardJournal, EncodeDecodeRoundTripsBitwise) {
  const ExperimentPlan plan = tiny_plan();
  const ExperimentPlan::Cell cell = plan.cells()[4];
  CellResult result;
  result.index = cell.index;
  result.record.algorithm = cell.algorithm;
  result.record.scenario = cell.scenario;
  result.record.run_seed = cell.seed;
  result.record.evaluations = 24;
  result.record.wall_seconds = 0.12345678901234567;
  // Doubles chosen to break lossy printf round trips: negative zero,
  // subnormals, and adjacent representable values.
  moo::Solution tricky;
  tricky.objectives = {-0.0, 5e-324, std::nextafter(1.0, 2.0)};
  tricky.x = {0.1, -1.0 / 3.0, 1e308, std::nextafter(0.5, 0.0), 42.0};
  tricky.constraint_violation = 1.0000000000000002;
  tricky.evaluated = true;
  result.record.front = {tricky, tricky};
  // Telemetry rides the cell block; 0.1 is inexact in binary64, so a
  // lossy double round trip would show up here.
  telemetry::Registry registry;
  registry.counter("evaluations").add(24);
  registry.gauge("cell.wall_s").observe(0.1);
  registry.histogram("front.size").observe(2);
  result.record.telemetry = registry.snapshot();

  const std::string dir = scratch_dir("shard_round_trip");
  const std::string path = write_shard_journal(dir, plan, 1, 3, {result});
  EXPECT_EQ(path, dir + "/shard_1_of_3.journal");
  EXPECT_EQ(slurp(path), encode_journal(plan, {result}));
  const auto decoded = load_campaign_journal(path, plan);
  ASSERT_EQ(decoded.size(), 1u);
  const RunRecord& record = decoded[0].record;
  EXPECT_EQ(decoded[0].index, 4u);
  EXPECT_EQ(record.algorithm, result.record.algorithm);
  EXPECT_EQ(record.scenario, result.record.scenario);
  EXPECT_EQ(record.run_seed, result.record.run_seed);
  EXPECT_EQ(record.evaluations, 24u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(record.wall_seconds),
            std::bit_cast<std::uint64_t>(result.record.wall_seconds));
  ASSERT_EQ(record.front.size(), 2u);
  for (const moo::Solution& solution : record.front) {
    ASSERT_EQ(solution.objectives.size(), tricky.objectives.size());
    for (std::size_t i = 0; i < tricky.objectives.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.objectives[i]),
                std::bit_cast<std::uint64_t>(tricky.objectives[i]))
          << "objective " << i;
    }
    ASSERT_EQ(solution.x.size(), tricky.x.size());
    for (std::size_t i = 0; i < tricky.x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.x[i]),
                std::bit_cast<std::uint64_t>(tricky.x[i]))
          << "variable " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.constraint_violation),
              std::bit_cast<std::uint64_t>(tricky.constraint_violation));
  }
  EXPECT_EQ(record.telemetry, result.record.telemetry);
}

TEST(ShardJournal, MergeReconstructsTheUnshardedCampaignBitwise) {
  const ExperimentPlan plan = tiny_plan();
  auto full_options = quiet(2);
  full_options.collect_records = true;
  const auto full = ExperimentDriver(full_options).run(plan);

  const std::string shard_dir = scratch_dir("shards");
  write_shards(plan, 3, shard_dir);
  // A shard file is a coordinator journal for its cells: crash-resume
  // replay accepts every record in it.
  EXPECT_EQ(
      load_campaign_journal(shard_dir + "/shard_0_of_3.journal", plan).size(),
      cells_for_shard(plan, 0, 3).size());

  auto merge_options = quiet(1);
  merge_options.cache_dir = scratch_dir("merged");
  merge_options.collect_records = true;
  const auto merged = merge_campaign(plan, shard_dir, merge_options);

  expect_identical(full.samples, merged.samples);
  ASSERT_EQ(merged.records.size(), full.records.size());

  // The artifacts CI diffs: the CSV bytes equal the unsharded cache store
  // (CRC trailer included), and each reference front file equals the one
  // the full records imply.
  EXPECT_EQ(slurp(indicator_csv_path(merge_options.cache_dir, plan)),
            io::with_crc_trailer(indicator_csv(full.samples)));
  for (const std::string& scenario : plan.scenarios) {
    std::ostringstream path;
    path << merge_options.cache_dir << "/reference_" << plan.scale.name << "_"
         << std::hex << plan.fingerprint() << std::dec << "_" << scenario
         << ".csv";
    EXPECT_EQ(slurp(path.str()),
              moo::front_to_csv(reference_front(full.records, scenario)))
        << scenario;
  }
}

TEST(ShardJournal, MergedTelemetryIsShardLayoutInvariant) {
  // Per-cell telemetry rides the journals; merge_campaign folds it in
  // grid order, so the exact instruments agree across shard layouts and
  // with the unsharded driver run.
  const ExperimentPlan plan = tiny_plan();
  const auto full = ExperimentDriver(quiet(2)).run(plan);
  ASSERT_FALSE(full.telemetry.empty());

  for (const std::size_t count : {std::size_t{2}, std::size_t{3}}) {
    const std::string shard_dir =
        scratch_dir("telemetry_shards_" + std::to_string(count));
    write_shards(plan, count, shard_dir);
    auto merge_options = quiet(1);
    merge_options.cache_dir =
        scratch_dir("telemetry_merged_" + std::to_string(count));
    const auto merged = merge_campaign(plan, shard_dir, merge_options);
    EXPECT_EQ(merged.telemetry.counters, full.telemetry.counters)
        << count << " shards";
    EXPECT_EQ(merged.telemetry.histograms, full.telemetry.histograms)
        << count << " shards";
    ASSERT_EQ(merged.telemetry.gauges.size(), full.telemetry.gauges.size());
    for (const auto& [name, gauge] : full.telemetry.gauges) {
      EXPECT_EQ(merged.telemetry.gauges.at(name).count, gauge.count) << name;
    }
  }
}

TEST(ShardJournal, MergeRejectsForeignMissingAndDuplicateShards) {
  const ExperimentPlan plan = tiny_plan();
  const std::string dir = scratch_dir("reject_shards");
  write_shards(plan, 2, dir);
  const std::string shard0 = dir + "/shard_0_of_2.journal";
  const std::string shard1 = dir + "/shard_1_of_2.journal";
  const std::string intact0 = slurp(shard0);
  const std::string intact1 = slurp(shard1);
  const auto expect_rejected = [&](const ExperimentPlan& target,
                                   const std::string& what) {
    const std::string message = merge_error(target, dir);
    EXPECT_NE(message.find(what), std::string::npos) << message;
  };

  // Merging into a reseeded plan: the shards were run against another.
  ExperimentPlan reseeded = plan;
  reseeded.scale.seed += 1;
  expect_rejected(reseeded, "fingerprint mismatch");

  // A header claiming a different grid size.
  const std::size_t header_end = intact0.find('\n');
  std::string header = intact0.substr(0, header_end);
  header.replace(header.rfind(' ') + 1, std::string::npos,
                 std::to_string(plan.cell_count() + 1));
  spit(shard0, header + intact0.substr(header_end));
  expect_rejected(plan, "cell count mismatch");
  spit(shard0, intact0);

  // A checksummed record whose index lies outside the plan.
  const auto cells = plan.cells();
  CellResult stray;
  stray.index = cells.size();
  stray.record.algorithm = cells[0].algorithm;
  stray.record.scenario = cells[0].scenario;
  stray.record.run_seed = cells[0].seed;
  spit(shard1, intact1 + journal_record(stray));
  expect_rejected(plan, "cell index out of range");

  // A checksummed record whose metadata contradicts the plan.
  CellResult imposter;
  imposter.index = cells[1].index;
  imposter.record.algorithm = cells[1].algorithm;
  imposter.record.scenario = cells[1].scenario;
  imposter.record.run_seed = cells[1].seed ^ 1;
  spit(shard1, intact1.substr(0, intact1.find('\n') + 1) +
                   journal_record(imposter));
  expect_rejected(plan, "contradicts the plan");
  spit(shard1, intact1);

  // The same shard twice double-covers its cells.
  spit(dir + "/shard_0_of_2_copy.journal", intact0);
  expect_rejected(plan, "overlapping or duplicate shards");
  std::filesystem::remove(dir + "/shard_0_of_2_copy.journal");

  // A missing shard leaves holes, reported from the first one.
  std::filesystem::remove(shard1);
  expect_rejected(plan, "first missing: cell 1)");
  spit(shard1, intact1);

  // The untampered pair still merges.
  EXPECT_EQ(merge_error(plan, dir), "");
}

}  // namespace
}  // namespace aedbmls::expt
