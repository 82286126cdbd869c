// Discrete-event simulation core.
//
// The simulator owns a priority queue of timestamped callbacks. Events with
// equal timestamps fire in scheduling order (stable (time, seq) ordering), so
// runs are fully deterministic.
//
// Hot-path layout (DESIGN.md §9): callbacks live in a slot arena — a pooled
// vector of fixed slots recycled through a free list — instead of a
// node-allocating map, and each slot stores its closure in an EventCallback
// small buffer. Scheduling, firing and cancelling an event therefore touch
// no allocator once the pool and the heap vector have reached their
// high-water marks; the common server closures (processor completion,
// arrival pump, decision wake-up) never touch the heap at all. EventIds
// carry a per-slot generation so a recycled slot can never be cancelled or
// queried through a stale handle.
//
// Each slot also records where its event sits (the sift primitives keep it
// current), so Cancel removes a heap entry eagerly in O(log n) instead of
// leaving a tombstone: a workload that schedules far-future deadlines and
// cancels nearly all of them keeps a heap of live size.
//
// Timeout lane (DESIGN.md §9): beside the heap sits a sorted FIFO lane. An
// event whose time is no earlier than the lane's last entry is appended to
// the lane in O(1) instead of being sifted into the heap. Constant-duration
// timeouts — the server's 30 s query-lifetime deadlines — are born in time
// order, so they all ride the lane and the heap keeps only the handful of
// near-future completions and wake-ups. Step pops the lesser of the heap
// top and the lane head under the same (time, seq) total order, so the pop
// sequence, and every schedule downstream of it, is exactly the pure heap's.
// Cancelling a lane entry leaves a tombstone (the lane's last entry is
// simply popped); tombstones at the head are trimmed and the lane is
// compacted once dead entries make up more than half of it.

#ifndef WEBDB_SIM_SIMULATOR_H_
#define WEBDB_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_callback.h"
#include "util/time.h"

namespace webdb {

// Handle for cancelling a scheduled event: (generation << 32) | slot index.
// Generations start at 1, so 0 is never a valid id.
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: event callbacks capture `this`-adjacent state.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (must be >= Now()).
  EventId ScheduleAt(SimTime t, EventCallback fn);

  // Schedules `fn` to run `delay` (>= 0) after Now().
  EventId ScheduleAfter(SimDuration delay, EventCallback fn);

  // Cancels a pending event. Returns false if it already fired or was
  // cancelled before.
  bool Cancel(EventId id);

  // True if `id` is still pending.
  bool IsPending(EventId id) const;

  // Runs the next pending event, advancing the clock. Returns false when the
  // queue is empty.
  bool Step();

  // Runs events until the queue drains.
  void Run();

  // Runs events with timestamp <= `t`, then advances the clock to `t` (if it
  // is not already past).
  void RunUntil(SimTime t);

  // Pre-sizes the heap and the slot arena for `pending_events` concurrently
  // pending events, so a run of known shape never grows them mid-flight.
  // The timeout lane is not reserved; it grows on demand to its own
  // high-water mark.
  void Reserve(size_t pending_events);

  size_t NumPending() const {
    return heap_.size() + (lane_.size() - lane_head_ - lane_dead_);
  }
  uint64_t NumExecuted() const { return executed_; }

  // Allocation / pool instrumentation for the hot-path benchmarks.
  struct Stats {
    uint64_t scheduled = 0;       // ScheduleAt calls
    uint64_t cancelled = 0;       // successful Cancels
    // Closures too large for the EventCallback inline buffer (each one is a
    // heap allocation; 0 on the server hot path).
    uint64_t callback_heap_spills = 0;
    size_t slots_allocated = 0;   // slot-arena high-water mark
  };
  const Stats& stats() const { return stats_; }

  // Deep consistency audit (invariant [event-arena-consistent], DESIGN.md
  // §8): every heap entry's slot points back at it; the lane is sorted from
  // its head, its head and tail are live, every live lane entry's slot points
  // back at it and the tombstone count is exact; heap plus live lane fit in
  // the arena. Aborts on violation. O(heap + lane); compiled in every build,
  // called periodically from Step under -DWEBDB_AUDIT=ON and directly by
  // tests.
  void AuditConsistency() const;

 private:
  friend class SimulatorTestPeer;  // tests: lane inspection and corruption

  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;
  // Tag bit of Slot::heap_pos: the event sits in the lane at the index held
  // in the low 31 bits rather than in the heap.
  static constexpr uint32_t kInLane = 1u << 31;
  // Lane entry slot of a cancelled event (tombstone).
  static constexpr uint32_t kDeadEntry = UINT32_MAX;

  struct Slot {
    EventCallback fn;
    uint32_t gen = 1;                 // bumped when the slot is released
    uint32_t next_free = kNoFreeSlot; // free-list link while unarmed
    uint32_t heap_pos = 0;            // heap index, or kInLane | lane index
  };
  // Reserve constructs every slot up front, so the arena's footprint is
  // sizeof(Slot) per reserved event: lane membership is a tag bit, not a
  // field.
  static_assert(sizeof(Slot) <= 80, "Slot must stay within 80 bytes");

  struct HeapEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;

    // Strict total order on (time, seq): seq is unique, so the pop sequence
    // is independent of the heap's internal layout — any correct heap
    // yields the same deterministic schedule.
    bool Before(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }

  // Removes heap_[pos], restoring the heap property. Used by both Step
  // (pos 0) and Cancel (arbitrary pos via the slot's heap_pos).
  void RemoveAt(size_t pos);
  // Sift primitives of the binary min-heap. Both keep every touched slot's
  // heap_pos current, which is what makes eager O(log n) cancellation
  // possible. Pop order is identical to any other correct heap because
  // Before() is a total order.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  // Returns `slot` to the free list and invalidates outstanding ids.
  void ReleaseSlot(uint32_t slot);
  // The pending event that fires next (lesser of heap top and lane head),
  // or nullptr when nothing is pending.
  const HeapEntry* Peek() const;
  // Removes the lane entry at `pos`: a tail pop, a head advance, or a
  // tombstone in the middle.
  void RemoveFromLane(size_t pos);
  // Restores the lane's shape after an entry left it: skips dead entries at
  // the head, empties a drained lane and compacts a mostly-dead one.
  void TidyLane();
  // Drops every dead lane entry and renumbers the survivors' slots.
  void CompactLane();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_; // binary min-heap on (time, seq); all live
  // Timeout lane: sorted on (time, seq) from lane_head_; entries before the
  // head have fired or been cancelled, and lane_dead_ counts the tombstones
  // after it. The head and the last entry are always live.
  std::vector<HeapEntry> lane_;
  size_t lane_head_ = 0;
  size_t lane_dead_ = 0;
  std::vector<Slot> slots_;     // arena; index = low 32 bits of EventId
  uint32_t free_head_ = kNoFreeSlot;
  Stats stats_;
};

}  // namespace webdb

#endif  // WEBDB_SIM_SIMULATOR_H_
