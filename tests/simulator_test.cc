#include "sim/simulator.h"

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/rng.h"

namespace webdb {

// Read access to the timeout lane's shape, which the public API hides.
class SimulatorTestPeer {
 public:
  // Physical lane length: live entries, tombstones and the dead prefix.
  static size_t LaneLength(const Simulator& sim) { return sim.lane_.size(); }
  static size_t LaneLive(const Simulator& sim) {
    return sim.lane_.size() - sim.lane_head_ - sim.lane_dead_;
  }
  static size_t HeapSize(const Simulator& sim) { return sim.heap_.size(); }
};

namespace {

using Peer = SimulatorTestPeer;

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime inner_fire_time = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { inner_fire_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire_time, 150);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.IsPending(id));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.IsPending(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelFromInsideEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.ScheduleAt(20, [&] { fired = true; });
  sim.ScheduleAt(10, [&] { sim.Cancel(victim); });
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(20, [&] { fired.push_back(20); });
  sim.RunUntil(15);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.Now(), 15);
  sim.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 25);
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(15, [&] { fired = true; });
  sim.RunUntil(15);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.NumExecuted(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.Now(), 99);
}

// --- slot-arena specifics ---------------------------------------------------

TEST(SimulatorTest, StaleIdCannotTouchRecycledSlot) {
  Simulator sim;
  int first = 0, second = 0;
  const EventId a = sim.ScheduleAt(10, [&] { ++first; });
  ASSERT_TRUE(sim.Step());  // fires `a`; its slot returns to the free list
  const EventId b = sim.ScheduleAt(20, [&] { ++second; });
  // The recycled slot has a new generation: the old handle is dead.
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.IsPending(a));
  EXPECT_FALSE(sim.Cancel(a));
  EXPECT_TRUE(sim.IsPending(b));
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, EventIdsAreNeverZero) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    const EventId id = sim.ScheduleAt(i, [] {});
    EXPECT_NE(id, 0u);
    if (i % 2 == 0) sim.Cancel(id);
  }
  sim.Run();
}

TEST(SimulatorTest, ArenaReusesSlotsInsteadOfGrowing) {
  Simulator sim;
  // A ping-pong chain keeps at most two events pending; a run of thousands
  // of events must not grow the arena past that.
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5000) sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(count, 5000);
  EXPECT_LE(sim.stats().slots_allocated, 2u);
  EXPECT_EQ(sim.stats().scheduled, 5000u);
}

TEST(SimulatorTest, ReserveDoesNotChangeBehavior) {
  // Two identical runs, one through Reserve: same ids, same order.
  std::vector<EventId> plain_ids, reserved_ids;
  std::vector<int> plain_order, reserved_order;
  for (bool reserve : {false, true}) {
    Simulator sim;
    if (reserve) sim.Reserve(64);
    auto& ids = reserve ? reserved_ids : plain_ids;
    auto& order = reserve ? reserved_order : plain_order;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(sim.ScheduleAt(10 - i, [&order, i] { order.push_back(i); }));
    }
    sim.Cancel(ids[3]);
    sim.Run();
  }
  EXPECT_EQ(plain_ids, reserved_ids);
  EXPECT_EQ(plain_order, reserved_order);
}

TEST(SimulatorTest, SmallCallbacksStayOffTheHeap) {
  Simulator sim;
  int fired = 0;
  int* counter = &fired;
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(i, [counter] { ++*counter; });
  }
  sim.Run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.stats().callback_heap_spills, 0u);
}

TEST(SimulatorTest, OversizedCallbacksSpillToHeapAndStillFire) {
  Simulator sim;
  std::array<uint64_t, 16> big{};  // 128 bytes of capture: exceeds the SBO
  big[15] = 7;
  uint64_t seen = 0;
  sim.ScheduleAt(1, [big, &seen] { seen = big[15]; });
  sim.Run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(sim.stats().callback_heap_spills, 1u);
}

TEST(SimulatorTest, CancelDuringStormKeepsCountsExact) {
  Simulator sim;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.ScheduleAt(i / 4, [&] { ++fired; }));
  }
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 3) {
    if (sim.Cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(sim.NumPending(), 1000u - cancelled);
  sim.Run();
  EXPECT_EQ(static_cast<size_t>(fired), 1000u - cancelled);
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, cancelled);
}

// --- timeout lane -------------------------------------------------------------

TEST(SimulatorLaneTest, MonotoneTimeoutsRideTheLane) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) sim.ScheduleAt(1000 + i, [] {});
  EXPECT_EQ(Peer::LaneLive(sim), 100u);
  EXPECT_EQ(Peer::HeapSize(sim), 0u);
  // Earlier than the lane's last entry: the heap takes it.
  sim.ScheduleAt(5, [] {});
  EXPECT_EQ(Peer::HeapSize(sim), 1u);
  EXPECT_EQ(sim.NumPending(), 101u);
  sim.Run();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(Peer::LaneLength(sim), 0u);
  sim.AuditConsistency();
}

TEST(SimulatorLaneTest, EqualTimeTiesAcrossLaneAndHeapFireInSeqOrder) {
  // Lane entry first in seq order: lane [300 (a), 500 (b)], then c at 300
  // lands in the heap because 300 < 500.
  {
    Simulator sim;
    std::vector<char> order;
    sim.ScheduleAt(300, [&] { order.push_back('a'); });
    sim.ScheduleAt(500, [&] { order.push_back('b'); });
    sim.ScheduleAt(300, [&] { order.push_back('c'); });
    ASSERT_EQ(Peer::HeapSize(sim), 1u);
    sim.Run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));
  }
  // Heap entry first in seq order: lane [100 (a), 400 (b)], h at 300 goes
  // to the heap; cancelling b pops the lane's tail, so l at 300 (a later
  // seq than h) is appended to the lane.
  {
    Simulator sim;
    std::vector<char> order;
    sim.ScheduleAt(100, [&] { order.push_back('a'); });
    const EventId b = sim.ScheduleAt(400, [&] { order.push_back('b'); });
    sim.ScheduleAt(300, [&] { order.push_back('h'); });
    ASSERT_TRUE(sim.Cancel(b));
    sim.ScheduleAt(300, [&] { order.push_back('l'); });
    ASSERT_EQ(Peer::HeapSize(sim), 1u);
    ASSERT_EQ(Peer::LaneLive(sim), 2u);
    sim.Run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'h', 'l'}));
  }
}

TEST(SimulatorLaneTest, CancelLaneHeadMiddleAndTail) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 7; ++i) {
    ids.push_back(sim.ScheduleAt(10 * (i + 1), [&fired, i] {
      fired.push_back(i);
    }));
  }
  ASSERT_EQ(Peer::LaneLive(sim), 7u);

  // Tail: popped outright, no tombstone.
  EXPECT_TRUE(sim.Cancel(ids[6]));
  EXPECT_EQ(Peer::LaneLength(sim), 6u);
  // Middle: a tombstone; the lane keeps its length.
  EXPECT_TRUE(sim.Cancel(ids[3]));
  EXPECT_EQ(Peer::LaneLive(sim), 5u);
  // Head: the head moves past it.
  EXPECT_TRUE(sim.Cancel(ids[0]));
  EXPECT_EQ(Peer::LaneLive(sim), 4u);
  EXPECT_EQ(sim.NumPending(), 4u);
  sim.AuditConsistency();
  // Cancelling 5 then 4 pops both off the tail, and with them the
  // tombstone at 3 that 4 uncovers.
  EXPECT_TRUE(sim.Cancel(ids[5]));
  EXPECT_TRUE(sim.Cancel(ids[4]));
  EXPECT_EQ(Peer::LaneLive(sim), 2u);
  EXPECT_EQ(Peer::LaneLength(sim), 3u);  // 1 and 2 behind the dead head
  sim.AuditConsistency();
  for (int i : {0, 3, 4, 5, 6}) {
    EXPECT_FALSE(sim.IsPending(ids[i]));
    EXPECT_FALSE(sim.Cancel(ids[i]));
  }
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.stats().cancelled, 5u);
}

TEST(SimulatorLaneTest, MonotoneScheduleThenCancelLeavesNoTombstones) {
  // The bench_hotpath cancel-pair pattern: every cancel hits the lane's
  // tail, so the lane never grows past one entry.
  Simulator sim;
  for (int i = 0; i < 10000; ++i) {
    const EventId id = sim.ScheduleAt(1000 + i, [] {});
    ASSERT_TRUE(sim.Cancel(id));
    ASSERT_EQ(Peer::LaneLength(sim), 0u);
  }
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(SimulatorLaneTest, LaneCompactsUnderALongRun) {
  // A server-shaped run: every 10 us arms a fixed-duration timeout (lane)
  // and a near-future completion (heap), and cancels most timeouts from
  // the middle of the lane before they fire. Dead entries — the fired
  // prefix and the tombstones — must never make up more than half the
  // lane, however long the run.
  Simulator sim;
  Rng rng(11);
  std::vector<EventId> timeouts;
  uint64_t fired = 0;
  size_t max_length = 0;
  for (int i = 0; i < 200000; ++i) {
    timeouts.push_back(sim.ScheduleAfter(5000, [&fired] { ++fired; }));
    sim.ScheduleAfter(rng.UniformInt(0, 20), [&fired] { ++fired; });
    if (timeouts.size() > 8 && rng.Bernoulli(0.7)) {
      const size_t pick = rng.UniformInt(0, timeouts.size() - 2);
      sim.Cancel(timeouts[pick]);
      timeouts[pick] = timeouts.back();
      timeouts.pop_back();
    }
    sim.RunUntil(sim.Now() + 10);
    max_length = std::max(max_length, Peer::LaneLength(sim));
    ASSERT_LE(Peer::LaneLength(sim), 2 * Peer::LaneLive(sim) + 2) << i;
  }
  sim.AuditConsistency();
  sim.Run();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(fired + sim.stats().cancelled, sim.stats().scheduled);
  // At most 500 timeouts are live at once (5000 us at one per 10 us);
  // without compaction the lane would hold all 200k of them.
  EXPECT_LE(max_length, 2 * 500u + 2);
}

TEST(SimulatorLaneTest, ReserveIsInvisibleToEventIds) {
  // A lane-heavy mix (monotone timeouts, out-of-order near events, cancels
  // at the lane's head, middle and tail) gives the same ids and the same
  // firing order with and without Reserve.
  std::vector<EventId> ids[2];
  std::vector<int> order[2];
  for (int reserve = 0; reserve < 2; ++reserve) {
    Simulator sim;
    if (reserve) sim.Reserve(256);
    auto& out = order[reserve];
    for (int i = 0; i < 60; ++i) {
      ids[reserve].push_back(
          sim.ScheduleAt(1000 + 10 * i, [&out, i] { out.push_back(i); }));
      ids[reserve].push_back(sim.ScheduleAt(
          500 - 5 * i, [&out, i] { out.push_back(100 + i); }));
      if (i % 7 == 3) sim.Cancel(ids[reserve][2 * (i - 2)]);
    }
    sim.Cancel(ids[reserve].back());
    sim.Cancel(ids[reserve][ids[reserve].size() - 2]);
    sim.RunUntil(700);
    for (int i = 0; i < 20; ++i) {
      ids[reserve].push_back(
          sim.ScheduleAfter(2000, [&out, i] { out.push_back(200 + i); }));
    }
    sim.Run();
  }
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(order[0], order[1]);
}

// Differential fuzz against a reference ordered set of (time, seq): random
// schedules that mix fixed-duration timeouts (the lane's case) with
// out-of-order near events, random cancels of live and stale ids, Step and
// RunUntil. Every pop must match the reference's minimum, and NumPending /
// IsPending must agree with it throughout.
TEST(SimulatorLaneTest, DifferentialFuzzAgainstOrderedSet) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim;
    Rng rng(seed);
    std::set<std::pair<SimTime, uint64_t>> reference;
    std::vector<EventId> id_of;       // index = seq
    std::vector<SimTime> time_of;     // index = seq
    std::vector<uint64_t> fired;      // seqs in firing order
    std::vector<uint64_t> expected;   // reference firing order
    const SimDuration timeout = rng.UniformInt(50, 400);

    const auto pop_reference = [&] {
      expected.push_back(reference.begin()->second);
      reference.erase(reference.begin());
    };
    const auto live = [&](uint64_t seq) {
      return reference.count({time_of[seq], seq}) > 0;
    };

    for (int op = 0; op < 20000; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 99));
      if (kind < 45) {
        SimTime t;
        if (rng.Bernoulli(0.5)) {
          t = sim.Now() + timeout;  // monotone deadline
        } else {
          t = sim.Now() + rng.UniformInt(0, 60);  // near, any order
        }
        const uint64_t seq = id_of.size();
        id_of.push_back(
            sim.ScheduleAt(t, [&fired, seq] { fired.push_back(seq); }));
        time_of.push_back(t);
        reference.insert({t, seq});
      } else if (kind < 70) {
        if (id_of.empty()) continue;
        const uint64_t seq = rng.UniformInt(0, id_of.size() - 1);
        const bool was_live = live(seq);
        ASSERT_EQ(sim.Cancel(id_of[seq]), was_live) << "seed " << seed;
        reference.erase({time_of[seq], seq});
      } else if (kind < 90) {
        ASSERT_EQ(sim.Step(), !reference.empty());
        if (!reference.empty()) pop_reference();
      } else {
        const SimTime until = sim.Now() + rng.UniformInt(0, 100);
        sim.RunUntil(until);
        while (!reference.empty() && reference.begin()->first <= until) {
          pop_reference();
        }
        ASSERT_EQ(sim.Now(), until);
      }
      ASSERT_EQ(sim.NumPending(), reference.size()) << "seed " << seed;
      ASSERT_EQ(fired, expected) << "seed " << seed;
      if (!id_of.empty()) {
        const uint64_t probe = rng.UniformInt(0, id_of.size() - 1);
        ASSERT_EQ(sim.IsPending(id_of[probe]), live(probe));
      }
      if (op % 512 == 0) sim.AuditConsistency();
    }
    sim.Run();
    while (!reference.empty()) pop_reference();
    EXPECT_EQ(fired, expected) << "seed " << seed;
    for (EventId id : id_of) EXPECT_FALSE(sim.IsPending(id));
    sim.AuditConsistency();
  }
}

// The schedule-into-the-past check is debug-tier (WEBDB_DCHECK): absent in
// plain release builds, active in Debug and -DWEBDB_AUDIT=ON builds.
#if WEBDB_DCHECK_ENABLED
TEST(SimulatorDeathTest, SchedulingInPastAborts) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(5, [] {}), "past");
}
#endif

}  // namespace
}  // namespace webdb
