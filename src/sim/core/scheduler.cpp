#include "sim/core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace aedbmls::sim {

EventId Scheduler::insert(Time when, Callback callback) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].callback = std::move(callback);
  heap_.push_back(HeapNode{when, next_seq_++, slot, slots_[slot].generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return encode(slot, slots_[slot].generation);
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint64_t index = (id.raw() & 0xffffffffULL) - 1;
  const auto generation = static_cast<std::uint32_t>(id.raw() >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  // A generation mismatch means the event already ran, was already
  // cancelled, or its slot was recycled by a newer event — all no-ops.
  if (slot.generation != generation) return false;
  slot.callback.reset();
  ++slot.generation;  // invalidates the id and the stale heap node
  free_.push_back(static_cast<std::uint32_t>(index));
  --live_;
  return true;
}

void Scheduler::drop_stale_top() noexcept {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].generation != heap_.front().generation) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Scheduler::pop_top_node() noexcept {
  Slot& slot = slots_[heap_.front().slot];
  slot.callback.reset();
  ++slot.generation;
  free_.push_back(heap_.front().slot);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  --live_;
}

Time Scheduler::next_time() {
  drop_stale_top();
  AEDB_REQUIRE(!heap_.empty(), "next_time on empty scheduler");
  return heap_.front().when;
}

Scheduler::Entry Scheduler::pop() {
  drop_stale_top();
  AEDB_REQUIRE(!heap_.empty(), "pop on empty scheduler");
  const HeapNode& top = heap_.front();
  Entry entry{top.when, encode(top.slot, top.generation),
              std::move(slots_[top.slot].callback)};
  pop_top_node();
  return entry;
}

Scheduler::Snapshot Scheduler::snapshot() const {
  Snapshot out;
  out.pending.reserve(live_);
  for (const HeapNode& node : heap_) {
    const Slot& slot = slots_[node.slot];
    if (slot.generation != node.generation) continue;  // cancelled
    out.pending.push_back(Snapshot::Pending{node, {}});
    out.pending.back().callback.copy_from(slot.callback);
  }
  if (out.pending.size() != heap_.size()) {
    // Dropping cancelled nodes can break the heap property of the rest.
    std::make_heap(out.pending.begin(), out.pending.end(),
                   [](const Snapshot::Pending& a, const Snapshot::Pending& b) {
                     return Later{}(a.node, b.node);
                   });
  }
  out.free = free_;
  out.arena_slots = slots_.size();
  out.next_seq = next_seq_;
  return out;
}

void Scheduler::restore(const Snapshot& snapshot) {
  AEDB_REQUIRE(heap_.empty() && live_ == 0, "restore into a non-empty scheduler");
  if (slots_.size() < snapshot.arena_slots) slots_.resize(snapshot.arena_slots);
  for (const Snapshot::Pending& pending : snapshot.pending) {
    Slot& slot = slots_[pending.node.slot];
    slot.generation = pending.node.generation;
    slot.callback.copy_from(pending.callback);
    heap_.push_back(pending.node);
  }
  free_.assign(snapshot.free.begin(), snapshot.free.end());
  for (std::size_t slot = snapshot.arena_slots; slot < slots_.size(); ++slot) {
    free_.push_back(static_cast<std::uint32_t>(slot));
  }
  next_seq_ = snapshot.next_seq;
  live_ = snapshot.pending.size();
}

bool operator==(const Scheduler::Snapshot& a,
                const Scheduler::Snapshot& b) noexcept {
  return a.free == b.free && a.arena_slots == b.arena_slots &&
         a.next_seq == b.next_seq &&
         std::equal(a.pending.begin(), a.pending.end(), b.pending.begin(),
                    b.pending.end(),
                    [](const Scheduler::Snapshot::Pending& x,
                       const Scheduler::Snapshot::Pending& y) {
                      return x.node == y.node;
                    });
}

void Scheduler::clear() noexcept {
  for (const HeapNode& node : heap_) {
    Slot& slot = slots_[node.slot];
    if (slot.generation != node.generation) continue;  // already cancelled
    slot.callback.reset();
    ++slot.generation;
    free_.push_back(node.slot);
  }
  heap_.clear();
  live_ = 0;
  next_seq_ = 1;
}

}  // namespace aedbmls::sim
