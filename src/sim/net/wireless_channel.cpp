#include "sim/net/wireless_channel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sim/net/wireless_phy.hpp"

namespace aedbmls::sim {

namespace {
constexpr double kSpeedOfLight = 299792458.0;  // m/s
}

WirelessChannel::WirelessChannel(Simulator& simulator,
                                 const PropagationModel& propagation,
                                 bool model_propagation_delay)
    : simulator_(simulator),
      propagation_(&propagation),
      model_delay_(model_propagation_delay) {}

void WirelessChannel::attach(WirelessPhy* phy, const MobilityModel* mobility) {
  AEDB_REQUIRE(phy != nullptr && mobility != nullptr, "attach null");
  entries_.push_back(Entry{phy, mobility});
  phy->set_channel(this);
}

void WirelessChannel::transmit(const WirelessPhy* sender, const Frame& frame,
                               Time duration) {
  const Time now = simulator_.now();
  const MobilityModel* sender_mobility = nullptr;
  for (const Entry& entry : entries_) {
    if (entry.phy == sender) {
      sender_mobility = entry.mobility;
      break;
    }
  }
  AEDB_REQUIRE(sender_mobility != nullptr, "transmit from unattached PHY");
  const Vec2 tx_pos = sender_mobility->position(now);

  for (const Entry& entry : entries_) {
    if (entry.phy == sender) continue;
    const Vec2 rx_pos = entry.mobility->position(now);
    const double rx_dbm =
        propagation_->rx_power_dbm(frame.tx_power_dbm, tx_pos, rx_pos);
    if (rx_dbm < entry.phy->params().interference_floor_dbm) continue;

    Time delay{};
    if (model_delay_) {
      const double meters = distance(tx_pos, rx_pos);
      delay = seconds_d(meters / kSpeedOfLight);
    }
    ++signals_delivered_;
    last_signal_end_ = std::max(last_signal_end_, now + delay + duration);
    WirelessPhy* receiver = entry.phy;
    simulator_.schedule(delay, [receiver, frame, rx_dbm, duration] {
      receiver->begin_rx(frame, rx_dbm, duration);
    });
  }
}

}  // namespace aedbmls::sim
