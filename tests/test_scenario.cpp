#include "aedb/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aedb/simulation_context.hpp"
#include "common/line_codec.hpp"

namespace aedbmls::aedb {
namespace {

AedbParams reasonable_params() {
  AedbParams params;
  params.min_delay_s = 0.0;
  params.max_delay_s = 0.5;
  params.border_threshold_dbm = -90.0;
  params.margin_threshold_db = 1.5;
  params.neighbors_threshold = 25.0;
  return params;
}

TEST(Scenario, DensityToNodeCount) {
  EXPECT_EQ(nodes_for_density(100), 25u);   // 0.25 km^2 arena
  EXPECT_EQ(nodes_for_density(200), 50u);
  EXPECT_EQ(nodes_for_density(300), 75u);
  EXPECT_EQ(nodes_for_density(100, 1000.0, 1000.0), 100u);
}

TEST(Scenario, PaperScenarioDefaults) {
  const ScenarioConfig config = make_paper_scenario(200, 11, 3);
  EXPECT_EQ(config.network.node_count, 50u);
  EXPECT_EQ(config.network.seed, 11u);
  EXPECT_EQ(config.network.network_index, 3u);
  EXPECT_EQ(config.broadcast_at, sim::seconds(30));
  EXPECT_EQ(config.end_at, sim::seconds(40));
}

TEST(Scenario, RunsAndProducesSaneMetrics) {
  const ScenarioConfig config = make_paper_scenario(100, 42, 0);
  const ScenarioResult result = run_scenario(config, reasonable_params());
  const BroadcastStats& stats = result.stats;
  EXPECT_EQ(stats.network_size, 25u);
  EXPECT_LE(stats.coverage, 24u);
  EXPECT_LE(stats.forwardings, stats.coverage);  // only receivers forward
  EXPECT_GE(stats.broadcast_time_s, 0.0);
  EXPECT_LT(stats.broadcast_time_s, 10.0);  // inside the 40 s window
  EXPECT_GT(result.events_executed, 0u);
}

TEST(Scenario, DeterministicAcrossRuns) {
  const ScenarioConfig config = make_paper_scenario(100, 42, 1);
  const AedbParams params = reasonable_params();
  const ScenarioResult a = run_scenario(config, params);
  const ScenarioResult b = run_scenario(config, params);
  EXPECT_EQ(a.stats.coverage, b.stats.coverage);
  EXPECT_EQ(a.stats.forwardings, b.stats.forwardings);
  EXPECT_DOUBLE_EQ(a.stats.energy_dbm_sum, b.stats.energy_dbm_sum);
  EXPECT_DOUBLE_EQ(a.stats.broadcast_time_s, b.stats.broadcast_time_s);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Scenario, DifferentNetworksDiffer) {
  const AedbParams params = reasonable_params();
  const ScenarioResult a = run_scenario(make_paper_scenario(100, 42, 0), params);
  const ScenarioResult b = run_scenario(make_paper_scenario(100, 42, 5), params);
  // Different topology or source: at least one metric differs.
  EXPECT_TRUE(a.stats.coverage != b.stats.coverage ||
              a.stats.energy_dbm_sum != b.stats.energy_dbm_sum ||
              a.stats.broadcast_time_s != b.stats.broadcast_time_s);
}

TEST(Scenario, WiderForwardingAreaDoesNotReduceReachability) {
  // The border threshold is the *inner* edge of the forwarding ring: a node
  // drops when its strongest copy is ABOVE it.  Raising the border toward
  // -70 widens the ring (more potential forwarders); at -95 (the decode
  // sensitivity) essentially every receiver is inside the border and drops.
  // Table I: increase border to improve coverage.
  AedbParams open = reasonable_params();
  open.border_threshold_dbm = -70.0;
  AedbParams closed = reasonable_params();
  closed.border_threshold_dbm = -95.0;

  double covered_open = 0.0;
  double covered_closed = 0.0;
  for (std::uint64_t net = 0; net < 4; ++net) {
    const ScenarioConfig config = make_paper_scenario(200, 7, net);
    covered_open += static_cast<double>(run_scenario(config, open).stats.coverage);
    covered_closed +=
        static_cast<double>(run_scenario(config, closed).stats.coverage);
  }
  EXPECT_GE(covered_open, covered_closed);
}

TEST(Scenario, FixedSourceWhenRandomSourceDisabled) {
  ScenarioConfig config = make_paper_scenario(100, 13, 0);
  config.random_source = false;
  const ScenarioResult result = run_scenario(config, reasonable_params());
  EXPECT_EQ(result.stats.network_size, 25u);
}

TEST(Scenario, ZeroDelayConfigurationStillValid) {
  AedbParams params = reasonable_params();
  params.min_delay_s = 0.0;
  params.max_delay_s = 0.0;
  const ScenarioConfig config = make_paper_scenario(100, 17, 2);
  const ScenarioResult result = run_scenario(config, params);
  EXPECT_LE(result.stats.coverage, 24u);
}

/// The objective fields, `drop_decisions` and `mac_drops` of one run,
/// doubles at `%.17g` (exact).
std::string pinned_fields(const BroadcastStats& stats) {
  std::string out = "coverage=" + std::to_string(stats.coverage) +
                    " forwardings=" + std::to_string(stats.forwardings) +
                    " energy_dbm_sum=";
  codec::append_double(out, stats.energy_dbm_sum);
  out += " energy_mj=";
  codec::append_double(out, stats.energy_mj);
  out += " broadcast_time_s=";
  codec::append_double(out, stats.broadcast_time_s);
  out += " drop_decisions=" + std::to_string(stats.drop_decisions) +
         " mac_drops=" + std::to_string(stats.mac_drops);
  return out;
}

struct PinnedRun {
  const char* name;
  ScenarioConfig config;
  AedbParams params;
  const char* expected;  ///< `pinned_fields` of the run's stats
};

/// Regimes at the edges of the run's timeline, each pinned to the exact
/// outcome it has always had.
std::vector<PinnedRun> pinned_runs() {
  const AedbParams params = reasonable_params();

  // Forwarding delays of up to 5 s: the dissemination is still under way
  // when the 40 s horizon cuts it (see StillRunningAtEndAtIsCut).
  AedbParams slow = params;
  slow.max_delay_s = 5.0;

  // The radio minimum: the source's frame reaches nobody.
  ScenarioConfig silent = make_paper_scenario(100, 7, 0);
  silent.default_tx_dbm = -60.0;

  ScenarioConfig no_delay = make_paper_scenario(200, 7, 2);
  no_delay.network.model_propagation_delay = false;

  // Forwarders have no neighbor knowledge and fall back to default power.
  ScenarioConfig late_beacons = make_paper_scenario(100, 7, 3);
  late_beacons.beacon_start = sim::seconds(32);

  // Nearly every receiver forwards within 20 ms with a long frame, and the
  // MACs give up after two busy carrier senses: data frames are dropped.
  ScenarioConfig congested = make_paper_scenario(300, 7, 5);
  congested.data_bytes = 4000;
  congested.network.mac.max_retries = 2;
  AedbParams eager = params;
  eager.max_delay_s = 0.02;
  eager.border_threshold_dbm = -70.0;

  ScenarioConfig screened = make_paper_scenario(200, 7, 4);
  screened.stop_when_bt_exceeds_s = 0.1;

  return {
      {"d200", make_paper_scenario(200, 7, 0), params,
       "coverage=49 forwardings=16 energy_dbm_sum=251.90790251368637"
       " energy_mj=1.3605094378328813 broadcast_time_s=1.2314287530000001"
       " drop_decisions=33 mac_drops=0"},
      {"d300", make_paper_scenario(300, 7, 0), params,
       "coverage=57 forwardings=11 energy_dbm_sum=176.22000000000003"
       " energy_mj=0.98546386341134373 broadcast_time_s=0.37450332800000002"
       " drop_decisions=46 mac_drops=0"},
      {"running-at-end", make_paper_scenario(200, 7, 1), slow,
       "coverage=31 forwardings=7 energy_dbm_sum=111.32500547321222"
       " energy_mj=0.61178465290177297 broadcast_time_s=8.6412199059999999"
       " drop_decisions=18 mac_drops=0"},
      {"silent-source", silent, params,
       "coverage=0 forwardings=0 energy_dbm_sum=0"
       " energy_mj=0 broadcast_time_s=0"
       " drop_decisions=0 mac_drops=0"},
      {"no-propagation-delay", no_delay, params,
       "coverage=47 forwardings=15 energy_dbm_sum=232.00216925644102"
       " energy_mj=1.2397333853975399 broadcast_time_s=0.78196255700000006"
       " drop_decisions=32 mac_drops=0"},
      {"beacons-after-broadcast", late_beacons, params,
       "coverage=18 forwardings=5 energy_dbm_sum=80.099999999999994"
       " energy_mj=0.44793811973242903 broadcast_time_s=0.76860130100000001"
       " drop_decisions=13 mac_drops=0"},
      {"congested", congested, eager,
       "coverage=58 forwardings=11 energy_dbm_sum=175.90646094505328"
       " energy_mj=14.072848261115729 broadcast_time_s=0.38414228100000003"
       " drop_decisions=0 mac_drops=47"},
      {"screened", screened, params,
       "coverage=20 forwardings=2 energy_dbm_sum=32.039999999999999"
       " energy_mj=0.17917524789297162 broadcast_time_s=0.15292854"
       " drop_decisions=9 mac_drops=0"},
  };
}

TEST(Scenario, PinnedOutcomesAtTimelineEdges) {
  for (const PinnedRun& run : pinned_runs()) {
    const ScenarioResult result = run_scenario(run.config, run.params);
    EXPECT_EQ(pinned_fields(result.stats), run.expected) << run.name;
  }
}

TEST(Scenario, PinnedOutcomesAtTimelineEdgesRestored) {
  // The same table through one workspace, twice: the first pass simulates
  // and snapshots each context's beacon prefix, the second restores it —
  // late beacons (nothing before the broadcast but pending first beacons),
  // a silent source, no propagation delay, MAC drops and a screened stop
  // included.
  const std::vector<PinnedRun> runs = pinned_runs();
  ScenarioWorkspace workspace;
  for (int pass = 0; pass < 2; ++pass) {
    for (const PinnedRun& run : runs) {
      const ScenarioResult result =
          run_scenario(run.config, run.params, workspace);
      EXPECT_EQ(pinned_fields(result.stats), run.expected)
          << run.name << " pass " << pass;
      const SimulationContext& context =
          workspace.context_for(run.config.network);
      EXPECT_EQ(result.events_restored,
                pass == 0 ? 0 : context.prefix_snapshot()->simulator.executed)
          << run.name;
    }
  }
  for (const PinnedRun& run : runs) {
    EXPECT_EQ(workspace.context_for(run.config.network).stats().restores, 1u)
        << run.name;
  }
}

TEST(Scenario, HorizonPastQuiescenceIsFree) {
  // Once the last data frame has landed and the last forward timer has
  // fired, the run stops: a later horizon simulates not one event more.
  ScenarioConfig config = make_paper_scenario(200, 7, 0);
  const ScenarioResult at_40 = run_scenario(config, reasonable_params());
  config.end_at = sim::seconds(80);
  const ScenarioResult at_80 = run_scenario(config, reasonable_params());
  EXPECT_EQ(pinned_fields(at_40.stats), pinned_fields(at_80.stats));
  EXPECT_EQ(at_40.stats.network_size, at_80.stats.network_size);
  EXPECT_EQ(at_40.stats.collisions, at_80.stats.collisions);
  EXPECT_EQ(at_40.events_executed, at_80.events_executed);
}

TEST(Scenario, StillRunningAtEndAtIsCut) {
  // The "running-at-end" row above really is cut by the horizon: a later
  // end changes its outcome.
  AedbParams slow = reasonable_params();
  slow.max_delay_s = 5.0;
  ScenarioConfig config = make_paper_scenario(200, 7, 1);
  const ScenarioResult cut = run_scenario(config, slow);
  config.end_at = sim::seconds(80);
  const ScenarioResult full = run_scenario(config, slow);
  EXPECT_NE(pinned_fields(cut.stats), pinned_fields(full.stats));
}

}  // namespace
}  // namespace aedbmls::aedb
