#include "aedb/aedb_app.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aedbmls::aedb {

AedbApp::AedbApp(sim::Simulator& simulator, sim::Node& node, Config config,
                 sim::BeaconApp& beacons, BroadcastStatsCollector& collector,
                 CounterRng stream)
    : Application(simulator, node),
      config_(config),
      beacons_(beacons),
      collector_(collector),
      rng_(stream.engine()) {}

AedbApp::MessageState& AedbApp::message_state(MessageId message) {
  for (std::size_t i = 0; i < messages_used_; ++i) {
    if (messages_[i].id == message) return messages_[i];
  }
  if (messages_used_ == messages_.size()) messages_.emplace_back();
  MessageState& state = messages_[messages_used_++];
  state.id = message;
  state.strongest_rx_dbm = -1e30;
  state.waiting = false;
  state.done = false;
  state.heard_from.clear();
  return state;
}

void AedbApp::originate(MessageId message) {
  // The scenario must have opened the ledger (it knows the network size).
  AEDB_REQUIRE(collector_.message() == message &&
                   collector_.origin() == node().id(),
               "collector not begun for this message/source");
  MessageState& state = message_state(message);
  state.done = true;  // the source never re-forwards its own message

  sim::Frame frame;
  frame.kind = sim::FrameKind::kData;
  frame.origin = node().id();
  frame.message_id = message;
  frame.size_bytes = config_.data_bytes;
  collector_.open_data_work();  // closed by the MAC's sent/drop hook
  node().device().send(frame, config_.default_tx_dbm);
}

void AedbApp::on_receive(const sim::Frame& frame, double rx_dbm) {
  if (frame.kind != sim::FrameKind::kData) return;
  MessageState& state = message_state(frame.message_id);
  if (state.done && state.heard_from.empty() && node().id() == frame.origin) {
    return;  // echo of our own broadcast
  }

  if (state.heard_from.empty() && !state.done && !state.waiting) {
    // --- first reception (Fig. 1 lines 1-9) ---
    ++counters_.first_receptions;
    collector_.record_first_rx(node().id(), simulator().now());
    state.strongest_rx_dbm = rx_dbm;
    state.heard_from.push_back(frame.sender);
    if (state.strongest_rx_dbm > config_.params.border_threshold_dbm) {
      // Too close to the sender: not in the forwarding area.
      ++counters_.drops_on_arrival;
      collector_.record_drop_decision(node().id());
      state.done = true;
      return;
    }
    state.waiting = true;
    const double delay_s =
        rng_.uniform(config_.params.min_delay_s, config_.params.max_delay_s);
    const MessageId message = frame.message_id;
    collector_.open_data_work();  // closed by forward_decision
    simulator().schedule(sim::seconds_d(delay_s),
                         [this, message] { forward_decision(message); });
    return;
  }

  // --- duplicate reception (Fig. 1 lines 10-15) ---
  ++counters_.duplicate_receptions;
  if (state.waiting) {
    state.strongest_rx_dbm = std::max(state.strongest_rx_dbm, rx_dbm);
    state.heard_from.push_back(frame.sender);
  }
}

double AedbApp::compute_forward_power(const std::vector<NodeId>& heard_from) {
  sim::NeighborTable& table = beacons_.neighbor_table();
  table.purge(simulator().now());

  const double border = config_.params.border_threshold_dbm;
  const double sensitivity =
      node().device().phy().params().rx_sensitivity_dbm;
  const double deliver_dbm = sensitivity + config_.params.margin_threshold_db;

  const std::size_t potential =
      table.count_in_forwarding_area(border, config_.default_tx_dbm);

  std::optional<sim::NeighborTable::Entry> target;
  if (static_cast<double>(potential) > config_.params.neighbors_threshold) {
    // Dense mode (Fig. 1 lines 19-20): shrink range to the forwarding-area
    // neighbor closest to the border; farther neighbors are sacrificed.
    target = table.closest_to_border(border, config_.default_tx_dbm);
    ++counters_.dense_mode_forwards;
  } else {
    // Sparse mode (lines 21-23): nodes we heard the message from already
    // have it, so reach the furthest of the *remaining* neighbors.
    target = table.furthest(heard_from);
    if (!target) target = table.furthest();
    ++counters_.sparse_mode_forwards;
  }

  if (!target) {
    // No beacon knowledge at all: be conservative, use the default power.
    return config_.default_tx_dbm;
  }
  return target->path_loss_db + deliver_dbm;
}

void AedbApp::forward_decision(MessageId message) {
  MessageState& state = message_state(message);
  AEDB_REQUIRE(state.waiting && !state.done, "forward decision without wait");
  state.waiting = false;
  state.done = true;

  // Re-check with the copies that arrived during the delay (lines 16-17).
  if (state.strongest_rx_dbm > config_.params.border_threshold_dbm) {
    ++counters_.drops_after_wait;
    collector_.record_drop_decision(node().id());
    collector_.close_data_work();
    return;
  }

  const double tx_dbm = compute_forward_power(state.heard_from);
  ++counters_.forwards;

  sim::Frame frame;
  frame.kind = sim::FrameKind::kData;
  frame.origin = collector_.origin();
  frame.message_id = message;
  frame.size_bytes = config_.data_bytes;
  // Open the frame's unit before closing the timer's, so the count never
  // touches zero between the two.
  collector_.open_data_work();
  node().device().send(frame, tx_dbm);
  collector_.close_data_work();
}

}  // namespace aedbmls::aedb
