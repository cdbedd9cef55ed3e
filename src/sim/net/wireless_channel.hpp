#pragma once

/// Broadcast wireless medium connecting all PHYs of a scenario.
///
/// On each transmission the channel evaluates the propagation model against
/// every other attached PHY at the *current* positions (mobility during one
/// frame, < 3 ms at <= 2 m/s, is < 6 mm and is ignored) and delivers the
/// signal after the speed-of-light delay.  Signals below the interference
/// floor are culled here, which keeps the event count per transmission
/// proportional to the neighbourhood size rather than the network size.

#include <vector>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/net/frame.hpp"
#include "sim/propagation/propagation_model.hpp"

namespace aedbmls::sim {

class WirelessPhy;

class WirelessChannel {
 public:
  /// `propagation` must outlive the channel.
  WirelessChannel(Simulator& simulator, const PropagationModel& propagation,
                  bool model_propagation_delay = true);

  /// Registers a PHY and the mobility model giving its position.
  /// Both must outlive the channel.
  void attach(WirelessPhy* phy, const MobilityModel* mobility);

  /// Rebinds the medium for a fresh run: new propagation model/delay flag,
  /// delivery counter and last signal end cleared.  Attached PHYs are kept.
  void reset(const PropagationModel& propagation, bool model_propagation_delay) noexcept {
    propagation_ = &propagation;
    model_delay_ = model_propagation_delay;
    signals_delivered_ = 0;
    last_signal_end_ = Time{};
  }

  /// Unregisters every PHY (entry storage retained); used when a pooled
  /// network rebuilds or re-wires its node graph.
  void detach_all() noexcept { entries_.clear(); }

  /// Radiates `frame` from `sender` (an attached PHY) for `duration`.
  void transmit(const WirelessPhy* sender, const Frame& frame, Time duration);

  [[nodiscard]] std::size_t device_count() const noexcept { return entries_.size(); }

  /// Total signals delivered above the interference floor (bench metric).
  [[nodiscard]] std::uint64_t signals_delivered() const noexcept {
    return signals_delivered_;
  }

  /// The latest reception end scheduled so far (arrival + frame duration
  /// over every delivered signal): once the clock is past it, every frame
  /// put on the air has landed at every receiver.  Zero before the first
  /// transmission.
  [[nodiscard]] Time last_signal_end() const noexcept { return last_signal_end_; }

  /// The medium's run state (what `reset` clears besides the model).
  struct Snapshot {
    std::uint64_t signals_delivered = 0;
    Time last_signal_end{};

    friend constexpr bool operator==(const Snapshot&, const Snapshot&) = default;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept {
    return Snapshot{signals_delivered_, last_signal_end_};
  }
  void restore(const Snapshot& snapshot) noexcept {
    signals_delivered_ = snapshot.signals_delivered;
    last_signal_end_ = snapshot.last_signal_end;
  }

 private:
  struct Entry {
    WirelessPhy* phy;
    const MobilityModel* mobility;
  };

  Simulator& simulator_;
  const PropagationModel* propagation_;  ///< never null; rebindable via reset()
  bool model_delay_;
  std::vector<Entry> entries_;
  std::uint64_t signals_delivered_ = 0;
  Time last_signal_end_{};
};

}  // namespace aedbmls::sim
