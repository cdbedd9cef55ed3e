#pragma once

/// Pending-event set: a binary heap over a recycled slot arena.
///
/// Heap nodes order by (time, insertion sequence); ties in time break by
/// insertion order, which makes simulations deterministic: two events
/// scheduled for the same instant always run in the order they were
/// scheduled.  Callbacks live in generation-tagged arena slots
/// (`InlineFunction`, no heap allocation per event); an `EventId` encodes
/// (slot, generation), so cancellation is an O(1) generation bump — stale
/// heap nodes are skipped at pop time, and a cancelled id that hits a
/// recycled slot is a guaranteed no-op because the generation no longer
/// matches.  Steady state allocates nothing: slots, the free list and the
/// heap all reuse their storage.
///
/// `snapshot()` copies the pending set (live heap nodes with their slots,
/// generations and callbacks, plus the free list and counters) by value;
/// `restore()` writes it back into the *same* scheduler's retained storage.
/// Callbacks are copied, not re-created, so whatever they point at must
/// still be the object they pointed at when the snapshot was taken.

#include <cstdint>
#include <vector>

#include "sim/core/event.hpp"
#include "sim/core/inline_function.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class Scheduler {
 public:
  using Callback = InlineFunction;

  /// Inserts an event; returns its id.
  EventId insert(Time when, Callback callback);

  /// Marks an event cancelled.  Safe to call with ids already executed or
  /// cancelled (no effect).  Returns true if the id was pending.
  bool cancel(EventId id);

  /// True when no runnable (non-cancelled) event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the next runnable event.  Requires !empty().
  [[nodiscard]] Time next_time();

  /// Extracts the next runnable event.  Requires !empty().
  struct Entry {
    Time when;
    EventId id;
    Callback callback;
  };
  Entry pop();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Drops every pending event and resets the insertion sequence, keeping
  /// slot/heap storage (and slot generations, so stale ids from before the
  /// clear still cancel as no-ops).  This is the per-run reset of pooled
  /// simulators.
  void clear() noexcept;

  /// Slots ever allocated (high-water mark of concurrent events; test/bench
  /// visibility into arena recycling).
  [[nodiscard]] std::size_t arena_slots() const noexcept { return slots_.size(); }

 private:
  struct HeapNode {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;

    friend constexpr bool operator==(const HeapNode&, const HeapNode&) = default;
  };

 public:
  /// Value copy of the pending set.  Only live events are kept (a cancelled
  /// node is dropped and the rest re-heaped), never the whole arena.
  struct Snapshot {
    struct Pending {
      HeapNode node;
      Callback callback;
    };
    std::vector<Pending> pending;      ///< in heap order
    std::vector<std::uint32_t> free;   ///< free list at the snapshot
    std::size_t arena_slots = 0;       ///< slots allocated at the snapshot
    std::uint64_t next_seq = 1;

    /// Equality of everything but the callbacks, which are type-erased: the
    /// (time, seq) keys name the events, the slots and generations place
    /// them.
    friend bool operator==(const Snapshot& a, const Snapshot& b) noexcept;
  };

  /// Copies the pending set.  Requires every pending callback copyable
  /// (`InlineFunction::copy_from` enforces it).
  [[nodiscard]] Snapshot snapshot() const;

  /// Replaces the (cleared) pending set with `snapshot`, taken from this
  /// scheduler: live slots get their callbacks and generations back, slots
  /// allocated since join the free list.  Allocates nothing once the arena
  /// has held the snapshot's events.  Ids issued since the snapshot are
  /// stale and must not be cancelled afterwards (a restored generation may
  /// match them); ids of restored events are valid again.
  void restore(const Snapshot& snapshot);

 private:
  struct Slot {
    std::uint32_t generation = 0;
    Callback callback;
  };
  /// Max-heap comparator under which the *earliest* node is the top.
  struct Later {
    bool operator()(const HeapNode& a, const HeapNode& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId encode(std::uint32_t slot, std::uint32_t generation) noexcept {
    return EventId((static_cast<std::uint64_t>(generation) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1));
  }

  /// Retires the slot behind the current heap top and removes the node.
  void pop_top_node() noexcept;
  /// Skips heap nodes whose slot generation moved on (cancelled events).
  void drop_stale_top() noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::vector<HeapNode> heap_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace aedbmls::sim
