/// Determinism regression suite for pooled simulation contexts: a pooled,
/// re-armed `run_scenario` must be **bitwise identical** to fresh
/// construction — across repeated runs, across differing scenarios
/// interleaved on one context, and at any evaluation thread count.  Pooled
/// runs restore their beacon prefix from a snapshot while fresh runs
/// simulate it, so every fresh==pooled check here is also a check that a
/// restored prefix equals a simulated one.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "aedb/scenario.hpp"
#include "aedb/simulation_context.hpp"
#include "aedb/tuning_problem.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/evaluation_engine.hpp"
#include "par/thread_pool.hpp"
#include "sim/mobility/gauss_markov.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/mobility/random_waypoint.hpp"

namespace aedbmls::aedb {
namespace {

AedbParams test_params() {
  AedbParams params;
  params.min_delay_s = 0.1;
  params.max_delay_s = 0.8;
  params.border_threshold_dbm = -88.0;
  params.neighbors_threshold = 15.0;
  return params;
}

void expect_bitwise_equal(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.stats.network_size, b.stats.network_size);
  EXPECT_EQ(a.stats.coverage, b.stats.coverage);
  EXPECT_EQ(a.stats.forwardings, b.stats.forwardings);
  EXPECT_EQ(a.stats.energy_dbm_sum, b.stats.energy_dbm_sum);
  EXPECT_EQ(a.stats.energy_mj, b.stats.energy_mj);
  EXPECT_EQ(a.stats.broadcast_time_s, b.stats.broadcast_time_s);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.mac_drops, b.stats.mac_drops);
  EXPECT_EQ(a.stats.drop_decisions, b.stats.drop_decisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ScenarioPooling, PrefixSnapshotIgnoresParamsHorizonScreenAndPayload) {
  // The premise of restoring the prefix: the state just before the
  // broadcast depends on nothing a restore may change.  Each context
  // snapshots during its first run, with the same history before it.
  const ScenarioConfig base = make_paper_scenario(200, 20130520, 1);
  AedbParams eager;
  eager.min_delay_s = 0.0;
  eager.max_delay_s = 0.01;
  eager.border_threshold_dbm = -70.0;
  eager.margin_threshold_db = 0.0;
  eager.neighbors_threshold = 0.0;
  AedbParams lazy;
  lazy.min_delay_s = 0.9;
  lazy.max_delay_s = 5.0;
  lazy.border_threshold_dbm = -95.0;
  lazy.margin_threshold_db = 3.0;
  lazy.neighbors_threshold = 50.0;
  ScenarioConfig screened = base;
  screened.end_at = sim::seconds(31);
  screened.stop_when_bt_exceeds_s = 0.05;
  screened.data_bytes = 1500;

  ScenarioWorkspace workspace;
  SimulationContext a;
  SimulationContext b;
  SimulationContext c;
  (void)a.run(base, eager, workspace);
  (void)b.run(base, lazy, workspace);
  (void)c.run(screened, eager, workspace);
  ASSERT_NE(a.prefix_snapshot(), nullptr);
  ASSERT_NE(b.prefix_snapshot(), nullptr);
  ASSERT_NE(c.prefix_snapshot(), nullptr);
  EXPECT_TRUE(*a.prefix_snapshot() == *b.prefix_snapshot());
  EXPECT_TRUE(*a.prefix_snapshot() == *c.prefix_snapshot());

  // The snapshot is no empty shell: 50 nodes' worth of beacon state, one
  // pending event per node at least, and 27–30 s of executed events.
  const SimulationContext::PrefixSnapshot& prefix = *a.prefix_snapshot();
  EXPECT_EQ(prefix.beacons.size(), 50u);
  EXPECT_GT(prefix.simulator.scheduler.pending.size(), 50u);
  EXPECT_GT(prefix.simulator.executed, 0u);
  EXPECT_EQ(prefix.simulator.now, base.broadcast_at - sim::nanoseconds(1));

  // ...and equality sees a prefix-key field.
  ScenarioConfig jittery = base;
  jittery.beacon_jitter = sim::milliseconds(20);
  SimulationContext d;
  (void)d.run(jittery, eager, workspace);
  EXPECT_FALSE(*a.prefix_snapshot() == *d.prefix_snapshot());
}

TEST(ScenarioPooling, MobilityPositionsArePureFunctionsOfTime) {
  // Mobility caches are not snapshotted: a restored run queries positions
  // in a different order than the run that took the snapshot, which is
  // only sound if the answer never depends on the query history.
  const CounterRng stream(20130520, {3, 7});
  const sim::Vec2 start{120.0, 310.0};
  const std::vector<std::function<std::unique_ptr<sim::MobilityModel>()>> kinds = {
      [&] {
        sim::RandomWalkMobility::Config walk;
        walk.epoch = sim::seconds(4);  // several epochs inside the window
        return std::make_unique<sim::RandomWalkMobility>(walk, start, stream);
      },
      [&] {
        return std::make_unique<sim::RandomWaypointMobility>(
            sim::RandomWaypointMobility::Config{}, start, stream);
      },
      [&] {
        return std::make_unique<sim::GaussMarkovMobility>(
            sim::GaussMarkovMobility::Config{}, start, stream);
      },
  };
  const sim::Time times[] = {sim::seconds(40), sim::seconds(27),
                             sim::milliseconds(30500), sim::seconds(29),
                             sim::seconds(38), sim::milliseconds(29999)};
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto visited = kinds[k]();
    for (const sim::Time t : times) {
      const auto fresh = kinds[k]();
      const sim::Vec2 got = visited->position(t);
      const sim::Vec2 want = fresh->position(t);
      EXPECT_EQ(got.x, want.x) << "kind " << k << " at " << t.ns();
      EXPECT_EQ(got.y, want.y) << "kind " << k << " at " << t.ns();
    }
  }
}

TEST(ScenarioPooling, RestoredRunsReportTheRestoredEvents) {
  const ScenarioConfig config = make_paper_scenario(100, 20130520, 2);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(config, params);
  EXPECT_EQ(fresh.events_restored, 0u);

  ScenarioWorkspace workspace;
  SimulationContext context;
  const ScenarioResult simulated = context.run(config, params, workspace);
  EXPECT_EQ(simulated.events_restored, 0u);  // this run took the snapshot
  const ScenarioResult restored = context.run(config, params, workspace);
  expect_bitwise_equal(simulated, fresh);
  expect_bitwise_equal(restored, fresh);
  EXPECT_EQ(restored.events_restored, context.prefix_snapshot()->simulator.executed);
  EXPECT_GT(restored.events_restored, 0u);
  EXPECT_LT(restored.events_restored, restored.events_executed);
  EXPECT_EQ(context.stats().restores, 1u);
  EXPECT_EQ(context.stats().rebinds, 1u);

  // The unpooled overload simulates the whole timeline on the same graph.
  const ScenarioResult unpooled = context.run(config, params);
  expect_bitwise_equal(unpooled, fresh);
  EXPECT_EQ(unpooled.events_restored, 0u);
  EXPECT_EQ(context.stats().restores, 1u);
}

TEST(ScenarioPooling, GraphRebuildDropsTheSnapshot) {
  // Unpooled runs that rebuild the graph away and back leave a network
  // equal to the snapshot's but new app objects: the next pooled run must
  // simulate its prefix again, not restore callbacks into freed apps.
  const ScenarioConfig d100 = make_paper_scenario(100, 13, 0);
  const ScenarioConfig d200 = make_paper_scenario(200, 13, 0);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(d100, params);

  ScenarioWorkspace workspace;
  SimulationContext context;
  expect_bitwise_equal(context.run(d100, params, workspace), fresh);
  (void)context.run(d200, params);
  expect_bitwise_equal(context.run(d100, params), fresh);
  const ScenarioResult pooled = context.run(d100, params, workspace);
  expect_bitwise_equal(pooled, fresh);
  EXPECT_EQ(pooled.events_restored, 0u);
  EXPECT_EQ(context.stats().restores, 0u);
  expect_bitwise_equal(context.run(d100, params, workspace), fresh);
  EXPECT_EQ(context.stats().restores, 1u);
}

TEST(ScenarioPooling, RunsOutsideThePrefixKeyRestore) {
  // Only what a run reads before the broadcast keys the prefix: the AEDB
  // parameters (taken at their domain's corners), the horizon, the
  // screen's stop and the payload size all restore.  The AEDB app is
  // re-armed with the new parameters after the restore, so this also pins
  // that it draws nothing and reads no parameter before the broadcast.
  const ScenarioConfig base = make_paper_scenario(200, 4242, 3);
  std::vector<double> lo;
  std::vector<double> hi;
  for (const auto& [min, max] : AedbParams::domain()) {
    lo.push_back(min);
    hi.push_back(max);
  }
  const AedbParams low = AedbParams::from_vector(lo);
  const AedbParams high = AedbParams::from_vector(hi);
  std::vector<std::pair<ScenarioConfig, AedbParams>> runs;
  runs.emplace_back(base, test_params());
  runs.emplace_back(base, low);
  runs.emplace_back(base, high);
  ScenarioConfig horizon = base;
  horizon.end_at = sim::milliseconds(30250);
  runs.emplace_back(horizon, test_params());
  ScenarioConfig screen = base;
  screen.stop_when_bt_exceeds_s = 0.02;
  runs.emplace_back(screen, low);
  ScenarioConfig payload = base;
  payload.data_bytes = 2000;
  runs.emplace_back(payload, high);

  ScenarioWorkspace workspace;
  SimulationContext context;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& [config, params] = runs[i];
      SCOPED_TRACE("pass " + std::to_string(pass) + " run " + std::to_string(i));
      expect_bitwise_equal(context.run(config, params, workspace),
                           run_scenario(config, params));
    }
  }
  EXPECT_EQ(context.stats().builds, 1u);
  EXPECT_EQ(context.stats().restores, 2 * runs.size() - 1);
}

TEST(ScenarioPooling, InterleavedPrefixKeysEachEqualFresh) {
  // One context alternates configs that share its topology key but differ
  // in a single prefix-key field: each change must re-simulate and
  // re-snapshot its prefix, each repeat must restore, and every run must
  // equal fresh construction.
  const ScenarioConfig base = make_paper_scenario(100, 99, 4);
  std::vector<std::pair<const char*, ScenarioConfig>> variants;
  const auto variant = [&](const char* name,
                           const std::function<void(ScenarioConfig&)>& edit) {
    ScenarioConfig config = base;
    edit(config);
    variants.emplace_back(name, config);
  };
  variant("beacon_period", [](ScenarioConfig& c) { c.beacon_period = sim::milliseconds(700); });
  variant("beacon_jitter", [](ScenarioConfig& c) { c.beacon_jitter = sim::milliseconds(40); });
  variant("beacon_bytes", [](ScenarioConfig& c) { c.beacon_bytes = 120; });
  variant("beacon_start", [](ScenarioConfig& c) { c.beacon_start = sim::seconds(25); });
  variant("broadcast_at", [](ScenarioConfig& c) { c.broadcast_at = sim::milliseconds(29500); });
  variant("default_tx_dbm", [](ScenarioConfig& c) { c.default_tx_dbm = 10.0; });
  variant("random_source", [](ScenarioConfig& c) { c.random_source = false; });
  variant("phy", [](ScenarioConfig& c) { c.network.phy.interference_floor_dbm = -100.0; });
  variant("mac", [](ScenarioConfig& c) { c.network.mac.cw = 8; });
  variant("mobility", [](ScenarioConfig& c) {
    c.network.mobility = sim::MobilityKind::kGaussMarkov;
  });
  const AedbParams params = test_params();
  const ScenarioResult fresh_base = run_scenario(base, params);

  ScenarioWorkspace workspace;
  SimulationContext context;
  expect_bitwise_equal(context.run(base, params, workspace), fresh_base);
  std::uint64_t restores = 0;
  for (const auto& [name, config] : variants) {
    SCOPED_TRACE(name);
    const ScenarioResult fresh = run_scenario(config, params);
    // Every variant really changes the prefix (else this test shows
    // nothing): its restored run differs from the base.
    EXPECT_NE(fresh.events_executed, fresh_base.events_executed);
    expect_bitwise_equal(context.run(config, params, workspace), fresh);
    expect_bitwise_equal(context.run(config, params, workspace), fresh);
    expect_bitwise_equal(context.run(base, params, workspace), fresh_base);
    expect_bitwise_equal(context.run(base, params, workspace), fresh_base);
    restores += 2;
    EXPECT_EQ(context.stats().restores, restores);
  }
}

TEST(ScenarioPooling, PooledRunsMatchFreshConstructionBitwise) {
  const ScenarioConfig config = make_paper_scenario(100, 20130520, 3);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(config, params);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const ScenarioResult pooled = run_scenario(config, params, workspace);
    expect_bitwise_equal(pooled, fresh);
  }
  // First run built the context; the two repeats hit the pooled graph.
  EXPECT_EQ(workspace.stats().context_misses, 1u);
  EXPECT_EQ(workspace.stats().context_hits, 2u);
}

TEST(ScenarioPooling, RepeatedRunsWithDifferentParamsStayFaithful) {
  const ScenarioConfig config = make_paper_scenario(100, 1, 0);
  AedbParams a = test_params();
  AedbParams b = test_params();
  b.max_delay_s = 1.4;
  b.border_threshold_dbm = -80.0;

  const ScenarioResult fresh_a = run_scenario(config, a);
  const ScenarioResult fresh_b = run_scenario(config, b);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_bitwise_equal(run_scenario(config, a, workspace), fresh_a);
    expect_bitwise_equal(run_scenario(config, b, workspace), fresh_b);
  }
}

TEST(ScenarioPooling, InterleavedScenariosShareOneContext) {
  // Same topology key (seed, network, node count, area) but different
  // network dynamics: both land on the same pooled context, which must
  // re-arm itself per run without cross-contamination.
  ScenarioConfig walk = make_paper_scenario(100, 7, 2);
  ScenarioConfig still = walk;
  still.network.static_nodes = true;
  still.network.max_speed = 0.0;
  const AedbParams params = test_params();

  const ScenarioResult fresh_walk = run_scenario(walk, params);
  const ScenarioResult fresh_still = run_scenario(still, params);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_bitwise_equal(run_scenario(walk, params, workspace), fresh_walk);
    expect_bitwise_equal(run_scenario(still, params, workspace), fresh_still);
  }
  EXPECT_EQ(workspace.stats().context_misses, 1u);
  EXPECT_EQ(workspace.stats().context_hits, 3u);
}

TEST(ScenarioPooling, NodeCountChangeOnOneContextRebuildsSafely) {
  // Driving one context directly across node-count changes exercises the
  // full-rebuild branch of Network::reset (storage cannot be reused).
  const ScenarioConfig d100 = make_paper_scenario(100, 11, 0);
  const ScenarioConfig d200 = make_paper_scenario(200, 11, 0);
  const AedbParams params = test_params();

  const ScenarioResult fresh_100 = run_scenario(d100, params);
  const ScenarioResult fresh_200 = run_scenario(d200, params);

  SimulationContext context;
  expect_bitwise_equal(context.run(d100, params), fresh_100);
  expect_bitwise_equal(context.run(d200, params), fresh_200);
  expect_bitwise_equal(context.run(d100, params), fresh_100);
  EXPECT_EQ(context.stats().builds, 1u);
  EXPECT_EQ(context.stats().reconfigures, 2u);
  EXPECT_EQ(context.stats().rebinds, 0u);
}

TEST(ScenarioPooling, SameCountReconfigureReusesNodeStorage) {
  // Equal node_count but different dynamics: Network::reset re-arms the
  // existing Node/NetDevice objects instead of rebuilding them.
  ScenarioConfig fast = make_paper_scenario(100, 5, 1);
  ScenarioConfig slow = fast;
  slow.network.max_speed = 0.5;
  const AedbParams params = test_params();

  const ScenarioResult fresh_fast = run_scenario(fast, params);
  const ScenarioResult fresh_slow = run_scenario(slow, params);

  SimulationContext context;
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  expect_bitwise_equal(context.run(slow, params), fresh_slow);
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  EXPECT_EQ(context.stats().builds, 1u);
  EXPECT_EQ(context.stats().reconfigures, 2u);
  EXPECT_EQ(context.stats().rebinds, 1u);
}

TEST(ScenarioPooling, ContextEvictionKeepsResultsCorrect) {
  // More distinct topologies than the context pool holds: evicted keys are
  // rebuilt on return and must still match fresh construction.
  const AedbParams params = test_params();
  ScenarioWorkspace workspace;
  const int kTopologies = 20;  // > ScenarioWorkspace's context capacity
  for (int round = 0; round < 2; ++round) {
    for (int net = 0; net < kTopologies; ++net) {
      const ScenarioConfig config =
          make_paper_scenario(100, 3, static_cast<std::uint64_t>(net));
      expect_bitwise_equal(run_scenario(config, params, workspace),
                           run_scenario(config, params));
    }
  }
  EXPECT_GT(workspace.stats().context_misses, static_cast<std::uint64_t>(kTopologies));
}

/// The non-default-radio catalog regimes: every knob they exercise
/// (correlated shadowing, steep path loss, waypoint speed spread, payload
/// sizing) is a distinct way for a pooled context to go stale.
const char* const kFullSurfaceRegimes[] = {"urban-canyon", "mixed-speed",
                                           "payload-small", "payload-large"};

std::string sanitized(std::string name) {
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class RegimePooling : public ::testing::TestWithParam<const char*> {};

TEST_P(RegimePooling, FreshEqualsPooledBitwise) {
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(GetParam());
  const ScenarioConfig config = spec.scenario_config(31, 1);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(config, params);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_bitwise_equal(run_scenario(config, params, workspace), fresh);
  }
  EXPECT_EQ(workspace.stats().context_misses, 1u);
  EXPECT_EQ(workspace.stats().context_hits, 2u);
}

INSTANTIATE_TEST_SUITE_P(FullSurfaceRegimes, RegimePooling,
                         ::testing::ValuesIn(kFullSurfaceRegimes),
                         [](const auto& info) {
                           return sanitized(info.param);
                         });

class ThreadCountInvariance
    : public ::testing::TestWithParam<std::tuple<std::size_t, const char*>> {};

TEST_P(ThreadCountInvariance, PooledEvaluationIsThreadCountIndependent) {
  expt::Scale scale;
  scale.networks = 2;
  scale.seed = 9;
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(std::get<1>(GetParam()));
  const AedbTuningProblem problem(spec.problem_config(scale));

  // Reference: per-solution evaluate() on this thread (itself pooled via
  // the thread-local workspace — the pre-pooling fresh path is covered by
  // the bitwise suites above).
  Xoshiro256 rng(123);
  std::vector<moo::Solution> reference(4);
  for (moo::Solution& s : reference) s.x = problem.random_point(rng);
  std::vector<moo::Solution> batch = reference;
  for (moo::Solution& s : reference) problem.evaluate_into(s);

  const std::size_t threads = std::get<0>(GetParam());
  par::ThreadPool pool(threads);
  const moo::EvaluationEngine engine(&pool);
  engine.evaluate(problem, batch);

  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].objectives.size(), reference[i].objectives.size());
    for (std::size_t k = 0; k < batch[i].objectives.size(); ++k) {
      EXPECT_EQ(batch[i].objectives[k], reference[i].objectives[k])
          << "solution " << i << " objective " << k << " at " << threads
          << " threads";
    }
    EXPECT_EQ(batch[i].constraint_violation, reference[i].constraint_violation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ThreadCountInvariance,
    ::testing::Combine(::testing::Values(1u, 4u, 12u),
                       ::testing::Values("d100", "urban-canyon", "mixed-speed",
                                         "payload-small", "payload-large")),
    [](const auto& info) {
      return sanitized(std::string(std::get<1>(info.param)) + "_" +
                       std::to_string(std::get<0>(info.param)) + "threads");
    });

}  // namespace
}  // namespace aedbmls::aedb
