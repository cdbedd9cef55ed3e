#pragma once

/// Pooled simulation state for repeated scenario evaluation.
///
/// The paper's evaluation grid re-runs the same fixed networks thousands of
/// times with different candidate configurations.  A `SimulationContext`
/// owns one complete simulation object graph — `Simulator`, `Network`
/// (nodes, radios, channel), the per-node applications and the statistics
/// collector — and *re-arms* it between runs instead of reconstructing it:
///
///  * **restore** (hottest path, pooled runs only): a rebind whose
///    pre-broadcast prefix was simulated before on this context.  Until
///    `broadcast_at` a run simulates beacons only, and they do not depend on
///    the AEDB parameters, `end_at`, the screen's stop or the payload size.
///    The first pooled run of a prefix simulates it and keeps a value
///    snapshot of the context's state just before `broadcast_at`
///    (scheduler, clock, PHYs, MACs, channel, beacon apps); later pooled
///    runs with the same prefix copy that snapshot back into this same
///    graph instead of simulating 27–30 s of beacons.  Pending callbacks
///    point into this context's own objects, so restoring into the context
///    that took the snapshot keeps every one of them valid;
///  * **rebind** (hot path): the network configuration is unchanged, only
///    the AEDB candidate differs — the scheduler arena, node storage,
///    radios and installed apps are all reused; per-run heap allocations
///    drop to near zero;
///  * **reconfigure**: a different network configuration lands on this
///    context — the graph is re-armed in place, reusing node/device
///    storage when `node_count` matches;
///  * **build**: first use — the graph is constructed.
///
/// The prefix key is the network configuration (`sim::equivalent`) plus
/// `beacon_start`, `beacon_period`, `beacon_jitter`, `beacon_bytes`,
/// `default_tx_dbm`, `broadcast_at` and `random_source`; a run with another
/// key, or one that (re)built the graph, simulates its prefix and replaces
/// the snapshot.  The unpooled overload never snapshots: it simulates the
/// whole timeline, which is what `run_scenario` without a workspace runs.
///
/// Determinism contract: a pooled/re-armed/restored run produces a
/// bitwise-identical `ScenarioResult` to a fresh-construction run
/// (regression-tested in `test_scenario_pooling`; docs/DETERMINISM.md).
/// Not thread-safe; use one context per thread (see `ScenarioWorkspace`).

#include <cstdint>
#include <optional>
#include <vector>

#include "aedb/aedb_app.hpp"
#include "aedb/broadcast_stats.hpp"
#include "aedb/scenario.hpp"
#include "sim/apps/beacon_app.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::aedb {

class SimulationContext {
 public:
  SimulationContext() = default;
  SimulationContext(const SimulationContext&) = delete;
  SimulationContext& operator=(const SimulationContext&) = delete;

  /// Runs `config` once with `params` on this context's (re-armed) graph,
  /// simulating the whole timeline.
  [[nodiscard]] ScenarioResult run(const ScenarioConfig& config,
                                   const AedbParams& params);

  /// The pooled run: as above, but the pre-broadcast prefix is restored
  /// from this context's snapshot when the prefix key matches (and
  /// snapshotted when it does not).  `workspace` supplies cached topology
  /// placements on graph (re)builds.
  [[nodiscard]] ScenarioResult run(const ScenarioConfig& config,
                                   const AedbParams& params,
                                   ScenarioWorkspace& workspace);

  /// How runs hit the reuse tiers (test/bench visibility).
  struct Stats {
    std::uint64_t builds = 0;        ///< graphs constructed from scratch
    std::uint64_t reconfigures = 0;  ///< re-armed for a different network config
    std::uint64_t rebinds = 0;       ///< hot path: same network, new candidate
    std::uint64_t restores = 0;      ///< rebinds that restored the prefix
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The context's state just before `broadcast_at`, as snapshotted.
  struct PrefixSnapshot {
    sim::Simulator::Snapshot simulator;
    sim::WirelessChannel::Snapshot channel;
    std::vector<sim::WirelessPhy::Snapshot> phys;        ///< by node index
    std::vector<sim::CsmaBroadcastMac::Snapshot> macs;   ///< by node index
    std::vector<sim::BeaconApp::Snapshot> beacons;       ///< by node index

    friend bool operator==(const PrefixSnapshot&, const PrefixSnapshot&) = default;
  };
  /// The current prefix snapshot; null before the first pooled run.
  [[nodiscard]] const PrefixSnapshot* prefix_snapshot() const noexcept {
    return prefix_.has_value() ? &*prefix_ : nullptr;
  }

 private:
  /// Shared body of the `run` overloads (`workspace` may be null).
  [[nodiscard]] ScenarioResult run_impl(const ScenarioConfig& config,
                                        const AedbParams& params,
                                        ScenarioWorkspace* workspace);

  /// Ensures `network_` matches `config`; returns true when the graph was
  /// (re)built and the applications must be re-installed.
  bool bind_network(const sim::NetworkConfig& config, ScenarioWorkspace* workspace);

  /// Installs (or re-arms) beaconing + AEDB on every node and re-opens the
  /// statistics ledger.  Event-scheduling and RNG-draw order is identical
  /// in both modes — that is what keeps pooled runs bitwise-deterministic.
  /// With `restored`, the beacon apps already hold the restored prefix and
  /// only the AEDB apps and the ledger are re-armed.
  void configure_apps(const ScenarioConfig& config, const AedbParams& params,
                      bool reinstall, bool restored);

  /// Snapshots the current state as the prefix of `config`.
  void capture_prefix(const ScenarioConfig& config);
  /// Copies the prefix snapshot back into the graph.
  void restore_prefix();

  sim::Simulator simulator_;
  std::optional<sim::Network> network_;
  BroadcastStatsCollector collector_;
  std::vector<sim::BeaconApp*> beacons_;  ///< installed apps, by node index
  std::vector<AedbApp*> apps_;            ///< installed apps, by node index
  double data_duration_s_ = 0.0;  ///< airtime of one data frame (energy metric)
  std::optional<PrefixSnapshot> prefix_;
  ScenarioConfig prefix_config_;  ///< config `prefix_` was taken under (its key)
  Stats stats_;
};

}  // namespace aedbmls::aedb
