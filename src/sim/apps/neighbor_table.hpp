#pragma once

/// One-hop neighbor table fed by beacon receptions.
///
/// AEDB is a cross-layer protocol: for every neighbor the table records the
/// last *received power* and the link's path-loss estimate
/// (beacon tx power − rx power).  Assuming link symmetry — the paper's
/// assumption too — "the power at which neighbor j hears me when I transmit
/// at P" is `P − path_loss(j)`, which is everything AEDB's forwarding-area
/// and power-adaptation logic needs.
///
/// Storage is a vector of the occupied entries kept sorted by NodeId: a
/// node hears a fifth of the network or less, so this is a fraction of a
/// NodeId-indexed array's size — for the live table and for every copy a
/// pooled context keeps of it.  Lookups are a binary search, the selection
/// helpers walk the entries in NodeId order — deterministic by
/// construction, independent of insertion history — and `reset()` keeps
/// the capacity, so once a pooled context's tables have grown to their
/// largest neighborhood they never allocate again.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class NeighborTable {
 public:
  struct Entry {
    NodeId id = kInvalidNode;
    double last_rx_dbm = 0.0;    ///< power of the most recent beacon
    double path_loss_db = 0.0;   ///< beacon tx power − rx power
    Time last_heard{};

    friend constexpr bool operator==(const Entry&, const Entry&) = default;
  };

  /// `expiry`: entries older than this are dropped by purge().
  explicit NeighborTable(Time expiry = aedbmls::sim::seconds_d(2.5)) noexcept
      : expiry_(expiry) {}

  /// Returns the table to its just-constructed state under a (possibly new)
  /// expiry.  Entry storage is retained.
  void reset(Time expiry) noexcept {
    expiry_ = expiry;
    entries_.clear();
  }

  /// Records a beacon from `id` heard at `rx_dbm` (sent at `tx_dbm`).
  void update(NodeId id, double rx_dbm, double tx_dbm, Time now);

  /// Drops entries not refreshed within the expiry window.
  void purge(Time now);

  /// Removes a neighbor explicitly (AEDB discards known forwarders).
  /// Returns true if present.
  bool erase(NodeId id);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool contains(NodeId id) const { return find(id).has_value(); }
  [[nodiscard]] std::optional<Entry> find(NodeId id) const;

  /// Neighbors in *my* forwarding area: those that would receive my
  /// default-power transmission at or below `border_dbm` — under symmetry,
  /// exactly those whose beacons (sent at the same default power) arrived
  /// at or below `border_dbm`.
  [[nodiscard]] std::size_t count_in_forwarding_area(double border_dbm,
                                                     double default_tx_dbm) const;

  /// Among forwarding-area neighbors, the one whose predicted rx power is
  /// *closest to the border from below* (AEDB's "new furthest neighbor" in
  /// dense mode, Fig. 1 line 20).  nullopt when the area is empty.  Ties
  /// resolve to the lowest NodeId.
  [[nodiscard]] std::optional<Entry> closest_to_border(double border_dbm,
                                                       double default_tx_dbm) const;

  /// The neighbor with the largest path loss (the furthest one),
  /// optionally ignoring ids in `exclude`.  nullopt when empty.  Ties
  /// resolve to the lowest NodeId.
  [[nodiscard]] std::optional<Entry> furthest(
      const std::vector<NodeId>& exclude = {}) const;

  /// All entries, in NodeId order.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  friend bool operator==(const NeighborTable&, const NeighborTable&) = default;

 private:
  Time expiry_;
  std::vector<Entry> entries_;  ///< occupied entries, ascending NodeId
};

}  // namespace aedbmls::sim
