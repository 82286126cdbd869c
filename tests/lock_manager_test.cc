#include "txn/lock_manager.h"

#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "util/logging.h"
#include "util/rng.h"

namespace webdb {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Conflicts(2, LockMode::kShared, {1, 2}).empty());
  lm.Acquire(2, LockMode::kShared, {1, 2});
  EXPECT_TRUE(lm.Conflicts(4, LockMode::kShared, {1, 2}).empty());
  lm.Acquire(4, LockMode::kShared, {2, 3});
  EXPECT_TRUE(lm.HoldsAny(2));
  EXPECT_TRUE(lm.HoldsAny(4));
  const auto holders = lm.SharedHolders(2);
  EXPECT_EQ(std::set<TxnId>(holders.begin(), holders.end()),
            (std::set<TxnId>{2, 4}));
  EXPECT_EQ(holders.size(), 2u);
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {5});
  const auto conflicts = lm.Conflicts(3, LockMode::kExclusive, {5});
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 2u);
}

TEST(LockManagerTest, SharedConflictsWithExclusive) {
  LockManager lm;
  lm.Acquire(3, LockMode::kExclusive, {5});
  EXPECT_EQ(lm.ExclusiveHolder(5), 3u);
  const auto conflicts = lm.Conflicts(2, LockMode::kShared, {4, 5});
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 3u);
}

TEST(LockManagerTest, NoSelfConflict) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {1});
  EXPECT_TRUE(lm.Conflicts(2, LockMode::kShared, {1}).empty());
}

TEST(LockManagerTest, ConflictsDeduplicated) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {1, 2, 3});
  const auto conflicts = lm.Conflicts(5, LockMode::kExclusive, {1});
  EXPECT_EQ(conflicts.size(), 1u);
  // A query over several items held by the same exclusive holder reports it
  // once.
  LockManager lm2;
  lm2.Acquire(3, LockMode::kExclusive, {1});
  lm2.Acquire(5, LockMode::kExclusive, {2});
  auto multi = lm2.Conflicts(2, LockMode::kShared, {1, 2});
  std::sort(multi.begin(), multi.end());
  EXPECT_EQ(multi, (std::vector<TxnId>{3, 5}));
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {1, 2, 3});
  lm.ReleaseAll(2);
  EXPECT_FALSE(lm.HoldsAny(2));
  EXPECT_EQ(lm.NumLockedItems(), 0u);
  EXPECT_TRUE(lm.Conflicts(3, LockMode::kExclusive, {1, 2, 3}).empty());
}

TEST(LockManagerTest, ReleaseUnknownIsNoop) {
  LockManager lm;
  lm.ReleaseAll(99);  // must not crash
  EXPECT_FALSE(lm.HoldsAny(99));
}

TEST(LockManagerTest, ReentrantAcquireIsIdempotent) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {1});
  lm.Acquire(2, LockMode::kShared, {1, 2});  // re-acquire 1, add 2
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerTest, ReentrantSharedAcquireKeepsOneHolder) {
  LockManager lm;
  lm.Acquire(2, LockMode::kShared, {4});
  lm.Acquire(2, LockMode::kShared, {4, 4});
  lm.Acquire(6, LockMode::kShared, {4});
  lm.Acquire(2, LockMode::kShared, {4});
  const auto holders = lm.SharedHolders(4);
  EXPECT_EQ(std::multiset<TxnId>(holders.begin(), holders.end()),
            (std::multiset<TxnId>{2, 6}));
  EXPECT_EQ(lm.NumLockedItems(), 1u);
  lm.AuditConsistency();
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.SharedHolders(4), (std::vector<TxnId>{6}));
  lm.ReleaseAll(6);
  EXPECT_TRUE(lm.SharedHolders(4).empty());
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerTest, ItemsBeyondTheReservedRangeGrowTheTable) {
  LockManager lm;
  lm.ReserveItems(4);
  // Unseen items are simply unlocked, on either side of the reserved range.
  EXPECT_EQ(lm.ExclusiveHolder(1000), 0u);
  EXPECT_TRUE(lm.SharedHolders(1000).empty());
  EXPECT_TRUE(lm.Conflicts(3, LockMode::kExclusive, {2, 1000}).empty());
  lm.Acquire(3, LockMode::kExclusive, {1000});
  lm.Acquire(5, LockMode::kShared, {2, 999});
  EXPECT_EQ(lm.ExclusiveHolder(1000), 3u);
  EXPECT_EQ(lm.Conflicts(7, LockMode::kExclusive, {999, 1000}),
            (std::vector<TxnId>{3, 5}));
  EXPECT_EQ(lm.NumLockedItems(), 3u);
  lm.AuditConsistency();
  lm.ReleaseAll(3);
  lm.ReleaseAll(5);
  EXPECT_EQ(lm.NumLockedItems(), 0u);
  EXPECT_FALSE(lm.HoldsAny(3));
  // A default-constructed manager grows from nothing.
  LockManager fresh;
  fresh.Acquire(9, LockMode::kShared, {77});
  EXPECT_EQ(fresh.SharedHolders(77), (std::vector<TxnId>{9}));
  fresh.ReleaseAll(9);
  EXPECT_EQ(fresh.NumLockedItems(), 0u);
}

TEST(LockManagerTest, AuditConsistencyPassesOnAChurnedTable) {
  // 2PL-HP-shaped churn: queries share-lock item sets, updates take one
  // exclusive lock after evicting every conflicting holder, and random
  // transactions release. Transaction ids are never reused, so the held
  // index recycles its nodes many times over.
  LockManager lm;
  lm.ReserveItems(16);
  Rng rng(5);
  std::set<TxnId> holding;
  TxnId next_id = 1;
  for (int round = 0; round < 5000; ++round) {
    const TxnId txn = next_id++;
    if (rng.Bernoulli(0.6)) {
      std::vector<ItemId> items;
      for (int k = rng.UniformInt(1, 4); k > 0; --k) {
        items.push_back(static_cast<ItemId>(rng.UniformInt(0, 20)));
      }
      for (TxnId loser : lm.Conflicts(txn, LockMode::kShared, items)) {
        lm.ReleaseAll(loser);
        holding.erase(loser);
      }
      lm.Acquire(txn, LockMode::kShared, items);
    } else {
      const std::vector<ItemId> item = {
          static_cast<ItemId>(rng.UniformInt(0, 20))};
      for (TxnId loser : lm.Conflicts(txn, LockMode::kExclusive, item)) {
        lm.ReleaseAll(loser);
        holding.erase(loser);
      }
      lm.Acquire(txn, LockMode::kExclusive, item);
    }
    holding.insert(txn);
    if (holding.size() > 6) {
      auto victim = holding.begin();
      std::advance(victim, rng.UniformInt(0, holding.size() - 1));
      lm.ReleaseAll(*victim);
      holding.erase(victim);
    }
    if (round % 64 == 0) lm.AuditConsistency();
  }
  lm.AuditConsistency();
  for (TxnId txn : holding) {
    EXPECT_TRUE(lm.HoldsAny(txn));
    lm.ReleaseAll(txn);
  }
  EXPECT_EQ(lm.NumLockedItems(), 0u);
  lm.AuditConsistency();
}

TEST(LockManagerTest, ExclusiveThenReleaseAllowsNewExclusive) {
  LockManager lm;
  lm.Acquire(3, LockMode::kExclusive, {7});
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.Conflicts(5, LockMode::kExclusive, {7}).empty());
  lm.Acquire(5, LockMode::kExclusive, {7});
  EXPECT_EQ(lm.ExclusiveHolder(7), 5u);
}

TEST(LockManagerTest, AuditConsistencyPassesOnHealthyTable) {
  LockManager lm;
  lm.AuditConsistency();  // empty table is consistent
  lm.Acquire(2, LockMode::kShared, {1, 2});
  lm.Acquire(4, LockMode::kShared, {2, 3});
  lm.Acquire(5, LockMode::kExclusive, {7});
  lm.AuditConsistency();
  lm.ReleaseAll(4);
  lm.AuditConsistency();
  lm.ReleaseAll(2);
  lm.ReleaseAll(5);
  lm.AuditConsistency();
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

// Section 2.1 write-write handling when two updates on the same item carry
// the same arrival timestamp (same simulator tick): arrival order still
// decides — the later submission supersedes the earlier one, which is
// invalidated without ever running.
TEST(LockManagerServerTest, WriteWriteDropOnTimestampTie) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // A long-running query keeps the CPU busy so neither update dispatches
  // before both have arrived at the same instant t=0.
  server.SubmitQuery(QueryType::kLookup, {1},
                     QualityContract::Make(QcShape::kStep, 1.0, Millis(50),
                                           1.0, 1.0),
                     Millis(5));
  Update* first = server.SubmitUpdate(0, 1.0, Millis(2));
  Update* second = server.SubmitUpdate(0, 2.0, Millis(2));
  ASSERT_EQ(first->arrival, second->arrival);  // genuine timestamp tie
  EXPECT_GT(second->item_arrival_seq, first->item_arrival_seq);
  server.Run();
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  // The survivor inherited the dropped update's queue position.
  EXPECT_EQ(second->fifo_rank, first->fifo_rank);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_EQ(server.metrics().updates_invalidated, 1);
  server.AuditInvariants();
}

// 2PL-HP priority inversion: a low-priority query is preempted while
// holding shared locks; the high-priority update that wants the item
// restarts it (the query loses its locks and its progress) and runs; the
// query then reacquires the lock from scratch and still commits.
TEST(LockManagerServerTest, RestartThenReacquireUnderPriorityInversion) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  Query* query = server.SubmitQuery(
      QueryType::kLookup, {0},
      QualityContract::Make(QcShape::kStep, 1.0, Millis(100), 1.0, 1.0),
      Millis(10));
  Update* update = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    update = server.SubmitUpdate(0, 3.5, Millis(2));
  });
  server.Run();
  ASSERT_NE(update, nullptr);
  // The conflicting update preempted and restarted the query (2PL-HP: the
  // running query is always the loser), then the query reacquired.
  EXPECT_EQ(update->state, TxnState::kCommitted);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(query->restarts, 1);
  EXPECT_GT(query->commit_time, update->commit_time);
  EXPECT_DOUBLE_EQ(query->staleness, 0.0);  // reread after the write
  // No leaked locks on either side of the inversion.
  EXPECT_FALSE(server.IsCpuBusy());
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();
}

// The item table is indexed by id, so a negative id must abort in every
// build instead of indexing before the table.
TEST(LockManagerDeathTest, NegativeItemAborts) {
  LockManager lm;
  lm.ReserveItems(8);
  EXPECT_DEATH(lm.Acquire(2, LockMode::kShared, {-1}), "item >= 0");
}

// The conflict-freedom precondition of Acquire is debug-tier
// (WEBDB_DCHECK / audit invariant [conflict-free]): absent in plain
// release builds, active in Debug and -DWEBDB_AUDIT=ON builds.
#if WEBDB_DCHECK_ENABLED
TEST(LockManagerDeathTest, AcquireWithConflictAborts) {
  LockManager lm;
  lm.Acquire(3, LockMode::kExclusive, {1});
  EXPECT_DEATH(lm.Acquire(5, LockMode::kExclusive, {1}), "conflict");
}
#endif

}  // namespace
}  // namespace webdb
