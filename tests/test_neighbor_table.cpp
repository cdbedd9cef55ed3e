#include "sim/apps/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace aedbmls::sim {
namespace {

constexpr double kDefaultTx = 16.02;

TEST(NeighborTable, UpdateAndFind) {
  NeighborTable table;
  table.update(3, -80.0, kDefaultTx, seconds(1));
  ASSERT_TRUE(table.find(3).has_value());
  EXPECT_DOUBLE_EQ(table.find(3)->last_rx_dbm, -80.0);
  EXPECT_NEAR(table.find(3)->path_loss_db, kDefaultTx + 80.0, 1e-12);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.find(4).has_value());
}

TEST(NeighborTable, RefreshKeepsLatestPower) {
  NeighborTable table;
  table.update(3, -80.0, kDefaultTx, seconds(1));
  table.update(3, -70.0, kDefaultTx, seconds(2));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_DOUBLE_EQ(table.find(3)->last_rx_dbm, -70.0);
  EXPECT_EQ(table.find(3)->last_heard, seconds(2));
}

TEST(NeighborTable, PurgeDropsStaleEntries) {
  NeighborTable table(seconds_d(2.5));
  table.update(1, -80.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(3));
  table.purge(seconds(4));  // entry 1 is 3 s old, entry 2 is 1 s old
  EXPECT_FALSE(table.contains(1));
  EXPECT_TRUE(table.contains(2));
}

TEST(NeighborTable, EraseRemoves) {
  NeighborTable table;
  table.update(1, -80.0, kDefaultTx, seconds(1));
  EXPECT_TRUE(table.erase(1));
  EXPECT_FALSE(table.erase(1));
  EXPECT_EQ(table.size(), 0u);
}

TEST(NeighborTable, ForwardingAreaCountsWeakLinks) {
  NeighborTable table;
  // Symmetric assumption: a neighbour heard at rx <= border sits in the
  // forwarding area.  Border at -85 dBm.
  table.update(1, -90.0, kDefaultTx, seconds(1));  // in area
  table.update(2, -85.0, kDefaultTx, seconds(1));  // boundary: in area
  table.update(3, -60.0, kDefaultTx, seconds(1));  // too close
  EXPECT_EQ(table.count_in_forwarding_area(-85.0, kDefaultTx), 2u);
  EXPECT_EQ(table.count_in_forwarding_area(-95.0, kDefaultTx), 0u);
}

TEST(NeighborTable, ClosestToBorderPicksStrongestInArea) {
  NeighborTable table;
  table.update(1, -94.0, kDefaultTx, seconds(1));
  table.update(2, -86.0, kDefaultTx, seconds(1));  // closest to -85 from below
  table.update(3, -70.0, kDefaultTx, seconds(1));  // outside area
  const auto target = table.closest_to_border(-85.0, kDefaultTx);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 2u);
}

TEST(NeighborTable, ClosestToBorderEmptyWhenNoArea) {
  NeighborTable table;
  table.update(1, -60.0, kDefaultTx, seconds(1));
  EXPECT_FALSE(table.closest_to_border(-85.0, kDefaultTx).has_value());
}

TEST(NeighborTable, FurthestSelectsLargestPathLoss) {
  NeighborTable table;
  table.update(1, -90.0, kDefaultTx, seconds(1));
  table.update(2, -60.0, kDefaultTx, seconds(1));
  const auto target = table.furthest();
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 1u);
}

TEST(NeighborTable, FurthestHonoursExclusions) {
  NeighborTable table;
  table.update(1, -90.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(1));
  const auto target = table.furthest({1});
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 2u);
  EXPECT_FALSE(table.furthest({1, 2}).has_value());
}

TEST(NeighborTable, EntriesSnapshot) {
  NeighborTable table;
  table.update(1, -90.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(1));
  EXPECT_EQ(table.entries().size(), 2u);
}

TEST(NeighborTable, NodeIdOrderIsIndependentOfInsertionOrder) {
  // Ties resolve to the lowest NodeId whatever order the beacons came in,
  // and erasing or purging keeps the remaining entries in NodeId order.
  NeighborTable table(seconds(2));
  table.update(9, -90.0, kDefaultTx, seconds(3));
  table.update(4, -90.0, kDefaultTx, seconds(3));
  table.update(7, -95.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(3));
  table.update(4, -90.0, kDefaultTx, seconds(3));  // refresh, no duplicate
  EXPECT_EQ(table.furthest()->id, 7u);
  EXPECT_EQ(table.furthest({7})->id, 4u);  // 4 and 9 tie
  EXPECT_EQ(table.closest_to_border(-85.0, kDefaultTx)->id, 4u);
  EXPECT_TRUE(table.erase(4));
  table.purge(seconds(4));  // drops 7, heard 3 s ago
  std::vector<NodeId> ids;
  for (const NeighborTable::Entry& entry : table.entries()) ids.push_back(entry.id);
  EXPECT_EQ(ids, (std::vector<NodeId>{2, 9}));
  table.reset(seconds(2));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.contains(2));
}

}  // namespace
}  // namespace aedbmls::sim
