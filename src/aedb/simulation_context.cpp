#include "aedb/simulation_context.hpp"

#include "common/assert.hpp"

namespace aedbmls::aedb {
namespace {

/// Whether two configs simulate the same pre-broadcast prefix: everything a
/// run reads before `broadcast_at`.  `end_at`, `stop_when_bt_exceeds_s`,
/// `data_bytes` and the AEDB parameters are only read from the broadcast on.
bool same_prefix(const ScenarioConfig& a, const ScenarioConfig& b) noexcept {
  return sim::equivalent(a.network, b.network) &&
         a.beacon_start == b.beacon_start && a.beacon_period == b.beacon_period &&
         a.beacon_jitter == b.beacon_jitter && a.beacon_bytes == b.beacon_bytes &&
         a.default_tx_dbm == b.default_tx_dbm &&
         a.broadcast_at == b.broadcast_at && a.random_source == b.random_source;
}

}  // namespace

bool SimulationContext::bind_network(const sim::NetworkConfig& config,
                                     ScenarioWorkspace* workspace) {
  if (network_.has_value() && sim::equivalent(network_->config(), config)) {
    network_->restart();
    ++stats_.rebinds;
    return false;
  }
  sim::NetworkConfig network_config = config;
  if (workspace != nullptr && network_config.preset_positions == nullptr) {
    network_config.preset_positions =
        &workspace->positions_for(network_config);
  }
  if (!network_.has_value()) {
    network_.emplace(simulator_, network_config);
    ++stats_.builds;
  } else {
    network_->reset(network_config);
    ++stats_.reconfigures;
  }
  return true;
}

void SimulationContext::configure_apps(const ScenarioConfig& config,
                                       const AedbParams& params,
                                       bool reinstall, bool restored) {
  const std::size_t n = network_->size();
  data_duration_s_ =
      network_->node(0).device().phy().frame_duration(config.data_bytes).seconds();
  collector_.reset();

  sim::BeaconApp::Config beacon_config;
  beacon_config.start_at = config.beacon_start;
  beacon_config.period = config.beacon_period;
  beacon_config.jitter = config.beacon_jitter;
  beacon_config.beacon_bytes = config.beacon_bytes;
  beacon_config.tx_power_dbm = config.default_tx_dbm;

  AedbApp::Config aedb_config;
  aedb_config.params = params;
  aedb_config.default_tx_dbm = config.default_tx_dbm;
  aedb_config.data_bytes = config.data_bytes;

  // App RNG streams derive from the (seed, network) pair so runs are
  // reproducible bit-for-bit.
  const CounterRng app_stream = network_->scenario_stream().child(0xA44);

  if (reinstall) {
    beacons_.clear();
    apps_.clear();
    beacons_.reserve(n);
    apps_.reserve(n);
    collector_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sim::Node& node = network_->node(i);
      auto& beacons =
          node.add_app<sim::BeaconApp>(beacon_config, app_stream.child(2 * i));
      auto& app = node.add_app<AedbApp>(aedb_config, beacons, collector_,
                                        app_stream.child(2 * i + 1));
      beacons_.push_back(&beacons);
      apps_.push_back(&app);

      // Energy/forwarding accounting happens at the MAC (actual airtime),
      // and so does closing each data frame's unit of outstanding work —
      // the source's frame included, though it is no forwarding.
      // Installed once per graph: the lambdas capture only stable context
      // state, so the rebind hot path never reassigns a std::function.
      node.device().set_sent_callback(
          [this, id = node.id()](const sim::Frame& frame, double tx_dbm) {
            if (frame.kind == sim::FrameKind::kData) {
              collector_.record_data_tx(id, tx_dbm, data_duration_s_);
              collector_.close_data_work();
            }
          });
      node.device().mac().set_drop_callback(
          [this, id = node.id()](const sim::Frame& frame) {
            if (frame.kind == sim::FrameKind::kData) {
              collector_.record_mac_drop(id);
              collector_.close_data_work();
            }
          });
    }
  } else {
    // Re-arm the installed apps in the exact order the install path uses:
    // beacon reset + start (draws the phase, schedules the first beacon),
    // then the AEDB app — event sequence numbers and RNG draws match the
    // fresh-construction path one for one.  The AEDB app neither draws nor
    // reads its parameters before the broadcast, so re-arming it after a
    // restored prefix is the same as having re-armed it before.
    for (std::size_t i = 0; i < n; ++i) {
      if (!restored) {
        beacons_[i]->reset(beacon_config, app_stream.child(2 * i));
        beacons_[i]->start();
      }
      apps_[i]->reset(aedb_config, app_stream.child(2 * i + 1));
    }
  }
}

void SimulationContext::capture_prefix(const ScenarioConfig& config) {
  const std::size_t n = network_->size();
  PrefixSnapshot snapshot;
  snapshot.simulator = simulator_.snapshot();
  snapshot.channel = network_->channel().snapshot();
  snapshot.phys.reserve(n);
  snapshot.macs.reserve(n);
  snapshot.beacons.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sim::NetDevice& device = network_->node(i).device();
    snapshot.phys.push_back(device.phy().snapshot());
    snapshot.macs.push_back(device.mac().snapshot());
    snapshot.beacons.push_back(beacons_[i]->snapshot());
  }
  prefix_ = std::move(snapshot);
  prefix_config_ = config;
}

void SimulationContext::restore_prefix() {
  simulator_.restore(prefix_->simulator);
  network_->channel().restore(prefix_->channel);
  for (std::size_t i = 0; i < network_->size(); ++i) {
    sim::NetDevice& device = network_->node(i).device();
    device.phy().restore(prefix_->phys[i]);
    device.mac().restore(prefix_->macs[i]);
    beacons_[i]->restore(prefix_->beacons[i]);
  }
}

ScenarioResult SimulationContext::run(const ScenarioConfig& config,
                                      const AedbParams& params) {
  return run_impl(config, params, nullptr);
}

ScenarioResult SimulationContext::run(const ScenarioConfig& config,
                                      const AedbParams& params,
                                      ScenarioWorkspace& workspace) {
  return run_impl(config, params, &workspace);
}

ScenarioResult SimulationContext::run_impl(const ScenarioConfig& config,
                                           const AedbParams& params,
                                           ScenarioWorkspace* workspace) {
  // Note: beacon_start may be *after* broadcast_at — a valid (if unusual)
  // configuration in which forwarders have no neighbor knowledge and fall
  // back to default-power transmissions (exercised by the test suite).
  AEDB_REQUIRE(config.end_at > config.broadcast_at, "empty broadcast window");

  simulator_.reset(
      CounterRng(config.network.seed, {config.network.network_index}).key());
  const bool reinstall = bind_network(config.network, workspace);
  // A rebuilt graph has new app objects, which a snapshot's pending
  // callbacks do not point at — also when an unpooled run did the rebuild.
  if (reinstall) prefix_.reset();
  const bool pooled = workspace != nullptr;
  const bool restored =
      pooled && prefix_.has_value() && same_prefix(prefix_config_, config);
  if (restored) {
    restore_prefix();
    ++stats_.restores;
  }
  configure_apps(config, params, reinstall, restored);
  const std::size_t n = network_->size();

  if (!restored) {
    // Source selection: fixed per (seed, network_index), so every candidate
    // configuration is judged on identical dissemination instances.  A
    // snapshot carries this event with its sequence number, so a time tie
    // at `broadcast_at` breaks the same way on a restored run.
    const std::uint64_t source_index =
        config.random_source ? network_->scenario_stream().bits(0x50BCE) % n : 0;
    const MessageId message = 1;
    simulator_.schedule_at(config.broadcast_at, [this, source_index, message] {
      collector_.begin(message, static_cast<NodeId>(source_index),
                       simulator_.now(), network_->size());
      apps_[source_index]->originate(message);
    });
  }

  // End the run once the dissemination is over (or, when screening, once
  // it is proved too slow); `end_at` stays the bound.
  collector_.arm_stops(simulator_, network_->channel(),
                       config.stop_when_bt_exceeds_s);

  if (pooled && !restored) {
    // The prefix: every event before the broadcast instant.  Nothing in it
    // can stop the run (no data work exists yet).
    simulator_.run_until(config.broadcast_at - sim::nanoseconds(1));
    AEDB_REQUIRE(!simulator_.stopped(), "run stopped before the broadcast");
    capture_prefix(config);
  }
  simulator_.run_until(config.end_at);

  std::uint64_t collisions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    collisions += network_->node(i).device().phy().counters().rx_failed_sinr;
  }

  ScenarioResult result;
  result.stats = collector_.finalize(collisions);
  result.events_executed = simulator_.executed_events();
  result.events_restored = restored ? prefix_->simulator.executed : 0;
  return result;
}

}  // namespace aedbmls::aedb
