#include "sim/simulator.h"

#include <string>
#include <utility>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

namespace {

// Audit builds run the full O(heap + lane) consistency scan once every
// kAuditStrideMask + 1 pops; the O(1) per-pop checks run on every pop.
constexpr uint64_t kAuditStrideMask = 63;

}  // namespace

EventId Simulator::ScheduleAt(SimTime t, EventCallback fn) {
  // Hot path (every arrival, completion and wake-up): debug tier.
  WEBDB_DCHECK_MSG(t >= now_, "cannot schedule into the past");
  WEBDB_DCHECK_MSG(static_cast<bool>(fn), "cannot schedule an empty callback");
  const uint64_t seq = next_seq_++;

  uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoFreeSlot;
  } else {
    WEBDB_CHECK_MSG(slots_.size() < kNoFreeSlot, "event arena exhausted");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    stats_.slots_allocated = slots_.size();
  }

  Slot& s = slots_[slot];
  if (fn.on_heap()) ++stats_.callback_heap_spills;
  s.fn = std::move(fn);
  const uint32_t gen = s.gen;

  if (lane_.empty() || (t >= lane_.back().time && lane_.size() < kInLane)) {
    // Born in order (the common-timeout case): append to the lane.
    s.heap_pos = kInLane | static_cast<uint32_t>(lane_.size());
    lane_.push_back(HeapEntry{t, seq, slot});
  } else {
    heap_.push_back(HeapEntry{t, seq, slot});
    SiftUp(heap_.size() - 1);
  }
  ++stats_.scheduled;
  return MakeId(slot, gen);
}

EventId Simulator::ScheduleAfter(SimDuration delay, EventCallback fn) {
  WEBDB_DCHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= slots_.size() || slots_[slot].gen != GenOf(id)) return false;
  // Eager removal: the slot knows where its heap entry sits, so the entry
  // comes out now instead of lingering as a tombstone until its (possibly
  // far-future) timestamp is reached. A lane entry becomes a tombstone
  // unless it is the lane's head or tail.
  const uint32_t pos = slots_[slot].heap_pos;
  if (pos & kInLane) {
    RemoveFromLane(pos & ~kInLane);
  } else {
    RemoveAt(pos);
  }
  ReleaseSlot(slot);
  ++stats_.cancelled;
  return true;
}

bool Simulator::IsPending(EventId id) const {
  const uint32_t slot = SlotOf(id);
  return slot < slots_.size() && slots_[slot].gen == GenOf(id);
}

const Simulator::HeapEntry* Simulator::Peek() const {
  if (lane_head_ == lane_.size()) {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  const HeapEntry* lane_head = &lane_[lane_head_];
  return heap_.empty() || lane_head->Before(heap_.front()) ? lane_head
                                                           : &heap_.front();
}

bool Simulator::Step() {
  const HeapEntry* next = Peek();
  if (next == nullptr) return false;
  const HeapEntry top = *next;
  const bool from_lane = next != heap_.data();
  if constexpr (audit::kEnabled) {
    // Event-queue time monotonicity: the heap order (time, seq) must
    // never hand us an event behind the clock — if it does, every
    // response time and staleness sample afterwards is garbage.
    WEBDB_AUDIT_THAT(audit::Invariant::kSimTimeMonotonic, top.time >= now_,
                     "event at t=" + std::to_string(top.time) +
                         " popped behind clock t=" + std::to_string(now_));
    // Arena bookkeeping: the popped entry's slot must point back at it, and
    // heap plus live lane can never hold more events than the arena has
    // slots. The full O(heap + lane) scan runs on a stride.
    const uint32_t expected_pos =
        from_lane ? kInLane | static_cast<uint32_t>(lane_head_) : 0;
    WEBDB_AUDIT_THAT(audit::Invariant::kEventArenaConsistent,
                     top.slot < slots_.size() &&
                         slots_[top.slot].heap_pos == expected_pos,
                     "next event's slot does not point back at its entry");
    WEBDB_AUDIT_THAT(audit::Invariant::kEventArenaConsistent,
                     NumPending() <= slots_.size(),
                     "more pending events than arena slots");
    if ((executed_ & kAuditStrideMask) == 0) AuditConsistency();
  }
  if (from_lane) {
    ++lane_head_;
    TidyLane();
  } else {
    RemoveAt(0);
  }
  // Move the callback out and release the slot BEFORE invoking: the
  // callback may schedule new events, growing slots_ and invalidating
  // references — and its own slot must already be reusable.
  EventCallback fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  now_ = top.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  for (const HeapEntry* next = Peek(); next != nullptr && next->time <= t;
       next = Peek()) {
    Step();
  }
  if (now_ < t) now_ = t;
}

void Simulator::Reserve(size_t pending_events) {
  heap_.reserve(pending_events);
  if (slots_.size() >= pending_events) return;
  // Grow the arena up front and chain the new slots onto the free list in
  // reverse, so the list pops them in ascending index order — the same order
  // on-demand growth would have used. Reserve is therefore invisible to
  // event ids and to anything downstream of them.
  const uint32_t old_size = static_cast<uint32_t>(slots_.size());
  slots_.resize(pending_events);
  stats_.slots_allocated = slots_.size();
  for (uint32_t i = static_cast<uint32_t>(pending_events); i > old_size; --i) {
    slots_[i - 1].next_free = free_head_;
    free_head_ = i - 1;
  }
}

void Simulator::RemoveFromLane(size_t pos) {
  if (pos + 1 == lane_.size()) {
    // The tail: pop it and any tombstones it uncovers, so the monotone
    // schedule-then-cancel pattern never leaves a tombstone behind. The
    // head is live, so the loop stops there at the latest.
    lane_.pop_back();
    while (lane_.size() > lane_head_ && lane_.back().slot == kDeadEntry) {
      lane_.pop_back();
      --lane_dead_;
    }
  } else if (pos == lane_head_) {
    ++lane_head_;
  } else {
    lane_[pos].slot = kDeadEntry;
    ++lane_dead_;
  }
  TidyLane();
}

void Simulator::TidyLane() {
  while (lane_head_ < lane_.size() && lane_[lane_head_].slot == kDeadEntry) {
    ++lane_head_;
    --lane_dead_;
  }
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (2 * (lane_head_ + lane_dead_) > lane_.size()) {
    CompactLane();
  }
}

void Simulator::CompactLane() {
  size_t out = 0;
  for (size_t i = lane_head_; i < lane_.size(); ++i) {
    if (lane_[i].slot == kDeadEntry) continue;
    lane_[out] = lane_[i];
    slots_[lane_[out].slot].heap_pos = kInLane | static_cast<uint32_t>(out);
    ++out;
  }
  lane_.resize(out);
  lane_head_ = 0;
  lane_dead_ = 0;
}

void Simulator::AuditConsistency() const {
  using audit::Invariant;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const uint32_t slot = heap_[i].slot;
    WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent,
                     slot < slots_.size() && slots_[slot].heap_pos == i,
                     "heap entry " + std::to_string(i) +
                         "'s slot does not point back at it");
  }
  WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent,
                   lane_head_ <= lane_.size(), "lane head past its end");
  if (lane_head_ < lane_.size()) {
    WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent,
                     lane_[lane_head_].slot != kDeadEntry &&
                         lane_.back().slot != kDeadEntry,
                     "lane head or tail is a tombstone");
  }
  size_t dead = 0;
  for (size_t i = lane_head_; i < lane_.size(); ++i) {
    const HeapEntry& entry = lane_[i];
    if (i > lane_head_) {
      WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent,
                       lane_[i - 1].Before(entry),
                       "lane out of (time, seq) order at index " +
                           std::to_string(i));
    }
    if (entry.slot == kDeadEntry) {
      ++dead;
      continue;
    }
    WEBDB_AUDIT_THAT(
        Invariant::kEventArenaConsistent,
        entry.slot < slots_.size() &&
            slots_[entry.slot].heap_pos == (kInLane | static_cast<uint32_t>(i)),
        "lane entry " + std::to_string(i) + "'s slot does not point back at it");
  }
  WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent, dead == lane_dead_,
                   "lane tombstone count " + std::to_string(lane_dead_) +
                       " but " + std::to_string(dead) + " found");
  WEBDB_AUDIT_THAT(Invariant::kEventArenaConsistent,
                   NumPending() <= slots_.size(),
                   "more pending events than arena slots");
}

void Simulator::RemoveAt(size_t pos) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  heap_[pos] = moved;
  slots_[moved.slot].heap_pos = static_cast<uint32_t>(pos);
  if (pos > 0 && moved.Before(heap_[(pos - 1) / 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulator::SiftUp(size_t i) {
  const HeapEntry item = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!item.Before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].heap_pos = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = item;
  slots_[item.slot].heap_pos = static_cast<uint32_t>(i);
}

void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry item = heap_[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].Before(heap_[child])) ++child;
    if (!heap_[child].Before(item)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i].slot].heap_pos = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = item;
  slots_[item.slot].heap_pos = static_cast<uint32_t>(i);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventCallback();
  // Bumping the generation invalidates every outstanding id for this slot.
  // On the (astronomically unlikely) wrap, skip 0 so ids are never 0.
  if (++s.gen == 0) s.gen = 1;
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace webdb
