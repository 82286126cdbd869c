// Edge-case server tests: lock release on drop of a preempted holder,
// multi-holder conflict resolution, FIFO-rank inheritance, alternative
// staleness metrics end-to-end, dispatch-overhead accounting, the
// shared-simulator constructor, and the drop of a fused member whose
// lifetime ran out while it rode a scan.

#include <algorithm>

#include <gtest/gtest.h>

#include "db/database.h"
#include "obs/tracer.h"
#include "sched/admission.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"

namespace webdb {
namespace {

QualityContract StepQc(double qos = 10.0, double qod = 20.0,
                       SimDuration rt_max = Millis(50), double uu_max = 1.0) {
  return QualityContract::Make(QcShape::kStep, qos, rt_max, qod, uu_max);
}

TEST(ServerEdgeTest, DroppedPreemptedQueryReleasesItsLocks) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  ServerConfig config;
  config.lifetime_factor = 0.1;
  config.min_lifetime = Millis(5);  // the query will be dropped mid-flight
  WebDatabaseServer server(&db, sched.get(), config);
  // Query starts, gets preempted (holding its read lock) by an update on
  // the other item, and its 5 ms lifetime expires during that update.
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  server.sim().ScheduleAt(Millis(2), [&] {
    server.SubmitUpdate(1, 1.0, Millis(10));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kDropped);
  EXPECT_TRUE(server.IsQuiescent());  // in particular: no leaked lock
}

TEST(ServerEdgeTest, QueryRestartsMultiplePreemptedUpdates) {
  Database db(3);
  auto sched = MakeQueryHigh();
  WebDatabaseServer server(&db, sched.get());
  // Two updates on different items start (one runs, is preempted by the
  // arriving query; the other never gets the CPU). The comparison query
  // read-locks both items; the preempted update holding a write lock is
  // restarted under 2PL-HP.
  server.SubmitUpdate(0, 1.0, Millis(4));
  server.SubmitUpdate(1, 2.0, Millis(4));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    query = server.SubmitQuery(QueryType::kComparison, {0, 1}, StepQc(),
                               Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().update_restarts, 1);
  // Both updates still applied afterwards.
  EXPECT_EQ(server.metrics().updates_applied, 2);
  EXPECT_TRUE(db.Item(0).IsFresh());
  EXPECT_TRUE(db.Item(1).IsFresh());
}

TEST(ServerEdgeTest, SupersedingUpdateInheritsQueuePosition) {
  Database db(3);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // CPU is blocked; three updates queue: A(item 0), B(item 1), then A2
  // (item 0) superseding A. A2 inherits A's FIFO rank, so it must be
  // applied BEFORE B despite arriving later.
  server.SubmitQuery(QueryType::kLookup, {2}, StepQc(), Millis(20));
  Update* b = nullptr;
  Update* a2 = nullptr;
  server.sim().ScheduleAt(Millis(1),
                          [&] { server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(2),
                          [&] { b = server.SubmitUpdate(1, 2.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(3),
                          [&] { a2 = server.SubmitUpdate(0, 3.0, Millis(2)); });
  server.Run();
  ASSERT_NE(b, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->state, TxnState::kCommitted);
  EXPECT_LT(a2->commit_time, b->commit_time);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 3.0);
}

TEST(ServerEdgeTest, ValueDistanceMetricEndToEnd) {
  Database db(2);
  auto sched = MakeQueryHigh();
  ServerConfig config;
  config.staleness_metric = StalenessMetric::kValueDistance;
  WebDatabaseServer server(&db, sched.get(), config);
  // Apply 100.0 first so the item has a committed value, then leave 107.5
  // pending while the query reads: vd = 7.5.
  server.SubmitUpdate(0, 100.0, Millis(2));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(5), [&] {
    server.SubmitUpdate(0, 107.5, Millis(2));
    query = server.SubmitQuery(QueryType::kLookup, {0},
                               StepQc(10.0, 20.0, Millis(50), /*uu_max=*/5.0),
                               Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_DOUBLE_EQ(query->staleness, 7.5);
  // vd 7.5 >= cutoff 5.0: no QoD profit.
  EXPECT_DOUBLE_EQ(query->profit.qod, 0.0);
  EXPECT_DOUBLE_EQ(query->profit.qos, 10.0);
}

TEST(ServerEdgeTest, TimeDifferentialMetricEndToEnd) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.staleness_metric = StalenessMetric::kTimeDifferential;
  WebDatabaseServer server(&db, &sched, config);
  // The reading query is queued BEFORE the update under non-preemptive
  // FIFO, so it reads item 0 at ~35ms with the update pending since t=1ms:
  // td ≈ 34ms > 20ms cutoff -> no QoD.
  server.SubmitQuery(QueryType::kLookup, {1}, StepQc(), Millis(30));
  Query* query = server.SubmitQuery(
      QueryType::kLookup, {0},
      StepQc(10.0, 20.0, Millis(100), /*uu_max(td ms)=*/20.0), Millis(5));
  server.sim().ScheduleAt(Millis(1),
                          [&] { server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_GT(query->staleness, 20.0);
  EXPECT_DOUBLE_EQ(query->profit.qod, 0.0);
}

TEST(ServerEdgeTest, DispatchOverheadExtendsExecution) {
  Database db(1);
  FifoScheduler sched;
  ServerConfig config;
  config.dispatch_overhead = Millis(1);
  WebDatabaseServer server(&db, &sched, config);
  Update* update = server.SubmitUpdate(0, 1.0, Millis(4));
  server.Run();
  EXPECT_EQ(update->commit_time, Millis(5));  // 4ms work + 1ms overhead
}

TEST(ServerEdgeTest, ZeroQcQueryCommitsWithZeroProfit) {
  Database db(1);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Query* query = server.SubmitQuery(QueryType::kLookup, {0},
                                    QualityContract(), Millis(5));
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(query->profit.Total(), 0.0);
  EXPECT_DOUBLE_EQ(server.ledger().total_max(), 0.0);
}

TEST(ServerEdgeTest, BackToBackSubmissionsAtSameInstant) {
  Database db(4);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  // Everything at t=0, including two updates on the same item.
  server.SubmitUpdate(0, 1.0, Millis(2));
  server.SubmitUpdate(0, 2.0, Millis(2));
  server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  server.SubmitUpdate(1, 3.0, Millis(2));
  server.SubmitQuery(QueryType::kAggregation, {0, 1}, StepQc(), Millis(5));
  server.Run();
  EXPECT_EQ(server.metrics().queries_committed, 2);
  EXPECT_EQ(server.metrics().updates_applied +
                server.metrics().updates_invalidated,
            3);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerEdgeTest, SharedSimulatorServerTakesTheOwningServersSchedule) {
  // The same workload through both public constructors: the server that
  // shares an external clock must run the schedule the owning one runs.
  const auto play = [](WebDatabaseServer& server) {
    server.SubmitUpdate(1, 1.0, Millis(4));
    server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(6));
    server.sim().ScheduleAt(Millis(2), [&server] {
      server.SubmitQuery(QueryType::kAggregation, {0, 1}, StepQc(30.0),
                         Millis(5));
      server.SubmitUpdate(0, 2.0, Millis(3));
    });
    server.sim().ScheduleAt(Millis(9), [&server] {
      server.SubmitUpdate(1, 3.0, Millis(2));
    });
    server.Run();
    EXPECT_EQ(server.metrics().queries_committed, 2);
    EXPECT_TRUE(server.IsQuiescent());
    return server.EndStateHash();
  };
  Database owned_db(2);
  auto owned_sched = MakeUpdateHigh();
  WebDatabaseServer owned(&owned_db, owned_sched.get());
  const uint64_t owned_hash = play(owned);

  Simulator sim;
  Database shared_db(2);
  auto shared_sched = MakeUpdateHigh();
  WebDatabaseServer shared(&sim, &shared_db, shared_sched.get());
  EXPECT_EQ(&shared.sim(), &sim);
  const uint64_t shared_hash = play(shared);

  EXPECT_EQ(shared_hash, owned_hash);
  EXPECT_EQ(sim.Now(), owned.Now());
  EXPECT_DOUBLE_EQ(shared.ledger().total_gained(),
                   owned.ledger().total_gained());
}

TEST(ServerEdgeTest, FusedMemberPastItsLifetimeIsDroppedWhenItsScanDissolves) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  TenantSet tenants;
  Tracer tracer;
  DbfAdmission admission(DbfAdmission::Options{});
  ServerConfig config;
  config.lifetime_factor = 0.01;  // 0.5 ms, so min_lifetime decides
  config.min_lifetime = Millis(3);
  config.fusion.enabled = true;
  config.tenants = &tenants;
  config.tracer = &tracer;
  config.admission = &admission;
  WebDatabaseServer server(&db, sched.get(), config);
  // An update holds the CPU for [0, 2 ms) while two look-alike lookups
  // queue; the higher-VRD one leads the scan at 2 ms and the other rides
  // it as a fused member. Both lifetimes end at 3 ms: the leader is running
  // and the member fused, so neither deadline drops anything.
  server.SubmitUpdate(1, 1.0, Millis(2));
  Query* leader =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(20.0), Millis(10));
  Query* member =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(10.0), Millis(10));
  // At 4 ms an update on the scanned item preempts the leader and, under
  // 2PL-HP, restarts it: the group dissolves after the member's deadline,
  // so the member is dropped instead of requeued.
  server.sim().ScheduleAt(Millis(4), [&] {
    ASSERT_EQ(member->state, TxnState::kFused);
    ASSERT_EQ(member->fused_into, leader->id);
    EXPECT_EQ(server.metrics().queries_dropped, 0);
    EXPECT_EQ(server.metrics().FindTenant(0)->dropped->value(), 0);
    server.SubmitUpdate(0, 2.0, Millis(1));
  });
  server.Run();

  EXPECT_EQ(member->state, TxnState::kDropped);
  EXPECT_EQ(member->fused_into, 0u);
  EXPECT_EQ(leader->state, TxnState::kCommitted);
  EXPECT_EQ(leader->restarts, 1);
  EXPECT_EQ(server.metrics().queries_dropped, 1);
  const ServerMetrics::TenantCounters* tenant = server.metrics().FindTenant(0);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->dropped->value(), 1);
  const auto count = [&](TraceEventType type) {
    return std::count_if(tracer.events().begin(), tracer.events().end(),
                         [&](const TraceEvent& event) {
                           return event.txn == member->id && event.type == type;
                         });
  };
  EXPECT_EQ(count(TraceEventType::kFuse), 1);
  EXPECT_EQ(count(TraceEventType::kDrop), 1);
  // The drop released the member's admission demand.
  EXPECT_EQ(admission.TrackedCount(), 0);
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();
}

}  // namespace
}  // namespace webdb
