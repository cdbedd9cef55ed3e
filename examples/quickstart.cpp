/// Quickstart: simulate one AEDB broadcast on a catalog scenario and print
/// the four metrics of §III-A.
///
///   ./quickstart [--scenario=d100] [--seed=7] [--network=0]
///                [--border=-88] [--margin=1] [--neighbors=15]
///                [--min-delay=0.1] [--max-delay=0.8]
///
/// `--scenario` accepts any ScenarioCatalog key (d100/d200/d300,
/// static-grid, highspeed, sparse-wide, or d<N> for any density);
/// `--density=N` is shorthand for dN.

#include <cstdio>

#include "aedb/scenario.hpp"
#include "common/cli.hpp"
#include "expt/scenario_catalog.hpp"

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);

  // A workload from the scenario catalog (Table II density d100 by default:
  // 500 m x 500 m, random-walk mobility at up to 2 m/s, beacons every
  // second, broadcast at t = 30 s).
  const expt::ScenarioSpec spec = expt::scenario_from_cli_or_exit(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const auto network = static_cast<std::uint64_t>(args.get_int("network", 0));
  const aedb::ScenarioConfig scenario = spec.scenario_config(seed, network);

  // An AEDB configuration (Table III domains).
  aedb::AedbParams params;
  params.min_delay_s = args.get_double("min-delay", 0.1);
  params.max_delay_s = args.get_double("max-delay", 0.8);
  params.border_threshold_dbm = args.get_double("border", -88.0);
  params.margin_threshold_db = args.get_double("margin", 1.0);
  params.neighbors_threshold = args.get_double("neighbors", 15.0);

  std::printf("AEDB quickstart — scenario %s: %s\n", spec.key.c_str(),
              spec.description.c_str());
  std::printf("%zu nodes, network %llu, seed %llu\n",
              scenario.network.node_count,
              static_cast<unsigned long long>(network),
              static_cast<unsigned long long>(seed));
  std::printf("configuration: %s\n\n", params.to_string().c_str());

  const aedb::ScenarioResult result = aedb::run_scenario(scenario, params);
  const aedb::BroadcastStats& stats = result.stats;

  std::printf("coverage        : %zu / %zu devices (%.1f%%)\n", stats.coverage,
              stats.network_size - 1, 100.0 * stats.coverage_fraction());
  std::printf("forwardings     : %zu\n", stats.forwardings);
  std::printf("energy (dBm sum): %.2f     [paper's energy metric]\n",
              stats.energy_dbm_sum);
  std::printf("energy (mJ)     : %.4f\n", stats.energy_mj);
  std::printf("broadcast time  : %.3f s   [constraint: < 2 s => %s]\n",
              stats.broadcast_time_s,
              stats.broadcast_time_s < 2.0 ? "feasible" : "INFEASIBLE");
  // The run stops once the dissemination is over (no data frame queued,
  // on the air or waiting behind a forward timer), at `end_at` at the
  // latest: collisions and events count up to that stop.
  std::printf("protocol drops  : %zu, MAC drops: %llu\n", stats.drop_decisions,
              static_cast<unsigned long long>(stats.mac_drops));
  std::printf("collisions      : %llu   [until the run ends]\n",
              static_cast<unsigned long long>(stats.collisions));
  std::printf("simulator events: %llu   [run ends when the dissemination is "
              "over, %.0f s at the latest]\n",
              static_cast<unsigned long long>(result.events_executed),
              scenario.end_at.seconds());
  return 0;
}
