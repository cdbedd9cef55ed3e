#include "sim/apps/neighbor_table.hpp"

#include <algorithm>
#include <limits>

namespace aedbmls::sim {
namespace {

/// The first entry of the NodeId-sorted `entries` whose id is >= `id`.
template <typename Entries>
auto first_not_below(Entries& entries, NodeId id) {
  return std::lower_bound(entries.begin(), entries.end(), id,
                          [](const NeighborTable::Entry& entry, NodeId key) {
                            return entry.id < key;
                          });
}

}  // namespace

void NeighborTable::update(NodeId id, double rx_dbm, double tx_dbm, Time now) {
  auto it = first_not_below(entries_, id);
  if (it == entries_.end() || it->id != id) it = entries_.insert(it, Entry{});
  it->id = id;
  it->last_rx_dbm = rx_dbm;
  it->path_loss_db = tx_dbm - rx_dbm;
  it->last_heard = now;
}

void NeighborTable::purge(Time now) {
  std::erase_if(entries_, [&](const Entry& entry) {
    return now - entry.last_heard > expiry_;
  });
}

bool NeighborTable::erase(NodeId id) {
  const auto it = first_not_below(entries_, id);
  if (it == entries_.end() || it->id != id) return false;
  entries_.erase(it);
  return true;
}

std::optional<NeighborTable::Entry> NeighborTable::find(NodeId id) const {
  const auto it = first_not_below(entries_, id);
  if (it == entries_.end() || it->id != id) return std::nullopt;
  return *it;
}

std::size_t NeighborTable::count_in_forwarding_area(double border_dbm,
                                                    double default_tx_dbm) const {
  std::size_t count = 0;
  for (const Entry& entry : entries_) {
    const double predicted_rx = default_tx_dbm - entry.path_loss_db;
    if (predicted_rx <= border_dbm) ++count;
  }
  return count;
}

std::optional<NeighborTable::Entry> NeighborTable::closest_to_border(
    double border_dbm, double default_tx_dbm) const {
  std::optional<Entry> best;
  double best_rx = -std::numeric_limits<double>::infinity();
  for (const Entry& entry : entries_) {
    const double predicted_rx = default_tx_dbm - entry.path_loss_db;
    if (predicted_rx <= border_dbm && predicted_rx > best_rx) {
      best_rx = predicted_rx;
      best = entry;
    }
  }
  return best;
}

std::optional<NeighborTable::Entry> NeighborTable::furthest(
    const std::vector<NodeId>& exclude) const {
  std::optional<Entry> best;
  double best_loss = -1.0;
  for (const Entry& entry : entries_) {
    if (std::find(exclude.begin(), exclude.end(), entry.id) != exclude.end()) {
      continue;
    }
    if (entry.path_loss_db > best_loss) {
      best_loss = entry.path_loss_db;
      best = entry;
    }
  }
  return best;
}

}  // namespace aedbmls::sim
