#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "db/database.h"
#include "db/update_register.h"
#include "exp/experiment.h"
#include "exp/trace_feeder.h"
#include "obs/tracer.h"
#include "server/web_database_server.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"
#include "util/rng.h"

// --- allocation counter -----------------------------------------------------
// Counts heap allocations while counting is on (traced replays only). The
// benchmark runs on one thread; relaxed atomics keep the counter defined if
// a library thread appears, and a plain load/store pair avoids a locked
// read-modify-write on every allocation.

namespace {
std::atomic<bool> g_alloc_counting{false};
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.store(g_alloc_count.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace replay_bench {

using webdb::TraceEventType;

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

void SetAllocCounting(bool on) {
  g_alloc_counting.store(on, std::memory_order_relaxed);
}

double ReplayOutcome::QueryFailPct() const {
  if (queries_submitted == 0) return 0.0;
  return 100.0 * static_cast<double>(queries_submitted - queries_committed) /
         static_cast<double>(queries_submitted);
}

namespace {

struct LayerTotals {
  Probe sched;
  Probe admission;
  Probe qc;
};

Probe Minus(const Probe& a, const Probe& b) {
  return Probe{a.calls - b.calls, a.self_ns - b.self_ns};
}

// Cuts the run into simulated seconds. Steps one event at a time and reads
// the clock after each step, so the run ends at exactly the instant Run()
// would leave it at (RunUntil slicing would leave the clock on a slice
// boundary, which the end-state hash mixes in). The event that crosses a
// boundary is charged to the second it started in.
template <typename TotalsFn>
void RunBySecond(webdb::WebDatabaseServer& server, TotalsFn totals,
                 LayerTrace* layers) {
  webdb::Simulator& sim = server.sim();
  const webdb::SimDuration kSecond = webdb::Seconds(1);
  int64_t second = 0;
  int64_t span_start = HostNowNs();
  LayerTotals at_start = totals();
  auto close_second = [&](int64_t end_ns, const LayerTotals& now_totals) {
    layers->seconds.push_back(SecondSpan{
        second, span_start, end_ns, Minus(now_totals.sched, at_start.sched),
        Minus(now_totals.admission, at_start.admission),
        Minus(now_totals.qc, at_start.qc)});
  };
  while (sim.Step()) {
    const int64_t now_second = sim.Now() / kSecond;
    if (now_second == second) continue;
    const int64_t now_ns = HostNowNs();
    const LayerTotals now_totals = totals();
    close_second(now_ns, now_totals);
    layers->peak_queued_queries = std::max(
        layers->peak_queued_queries, server.scheduler().NumQueuedQueries());
    second = now_second;
    span_start = now_ns;
    at_start = now_totals;
  }
  close_second(HostNowNs(), totals());
}

// Walks the Tracer stream of a drained traced replay: query waits, and the
// lock / register sequence when `locks` is non-null.
void DigestEvents(const webdb::WebDatabaseServer& server,
                  const std::vector<webdb::TraceEvent>& events,
                  LayerTrace* layers, LockSequence* locks) {
  const size_t num_queries = server.queries().size();
  std::vector<webdb::SimTime> submitted(num_queries, -1);
  std::vector<bool> dispatched(num_queries, false);
  // Fused members and cache hits hold no locks: their commit or drop
  // releases nothing. Cleared when the query re-enters a queue.
  std::vector<bool> lock_free(num_queries, false);
  if (locks != nullptr) {
    locks->query_items.reserve(num_queries);
    for (const webdb::Query& query : server.queries()) {
      locks->query_items.push_back(query.items);
    }
    locks->update_items.reserve(server.updates().size());
    for (const webdb::Update& update : server.updates()) {
      locks->update_items.push_back(update.item);
    }
  }
  auto lock = [&](LockSequence::Kind kind, webdb::TxnId txn) {
    if (locks == nullptr) return;
    locks->lock_ops.push_back(LockSequence::LockOp{kind, txn});
    if (kind == LockSequence::Kind::kRelease) {
      ++locks->releases;
    } else {
      ++locks->acquires;
    }
  };
  auto reg = [&](LockSequence::RegisterKind kind, const webdb::TraceEvent& e) {
    if (locks == nullptr) return;
    locks->register_ops.push_back(LockSequence::RegisterOp{
        kind, locks->update_items[webdb::TxnIndex(e.txn)], e.txn});
  };
  for (const webdb::TraceEvent& e : events) {
    const uint64_t index = webdb::TxnIndex(e.txn);
    if (e.is_update) {
      switch (e.type) {
        case TraceEventType::kSubmit:
          reg(LockSequence::RegisterKind::kRegister, e);
          break;
        case TraceEventType::kDispatch:
          lock(LockSequence::Kind::kAcquireExclusive, e.txn);
          reg(LockSequence::RegisterKind::kRemove, e);
          if (locks != nullptr) ++locks->update_dispatches;
          break;
        case TraceEventType::kRestart:
          lock(LockSequence::Kind::kRelease, e.txn);
          reg(LockSequence::RegisterKind::kRegister, e);
          break;
        case TraceEventType::kInvalidate:
          lock(LockSequence::Kind::kRelease, e.txn);
          reg(LockSequence::RegisterKind::kRemove, e);
          break;
        case TraceEventType::kCommit:
          lock(LockSequence::Kind::kRelease, e.txn);
          break;
        default:
          break;
      }
      continue;
    }
    switch (e.type) {
      case TraceEventType::kSubmit:
        submitted[index] = e.time;
        break;
      case TraceEventType::kDispatch:
        if (!dispatched[index]) {
          dispatched[index] = true;
          layers->query_wait_ms.push_back(
              webdb::ToMillis(e.time - submitted[index]));
        }
        lock_free[index] = false;
        lock(LockSequence::Kind::kAcquireShared, e.txn);
        break;
      case TraceEventType::kFuse:
      case TraceEventType::kCacheHit:
        lock_free[index] = true;
        break;
      case TraceEventType::kEnqueue:
        lock_free[index] = false;
        break;
      case TraceEventType::kCommit:
        if (!lock_free[index]) lock(LockSequence::Kind::kRelease, e.txn);
        break;
      case TraceEventType::kDrop:
        if (lock_free[index]) {
          if (locks != nullptr) ++locks->member_drops;
        } else {
          lock(LockSequence::Kind::kRelease, e.txn);
        }
        break;
      case TraceEventType::kRestart:
      case TraceEventType::kShed:
        lock(LockSequence::Kind::kRelease, e.txn);
        break;
      default:
        break;
    }
  }
}

// Output check of a drained replay; returns why it failed, or "".
std::string CheckOutcome(const webdb::WebDatabaseServer& server,
                         const webdb::Trace& trace,
                         const webdb::TraceFeeder& feeder,
                         const ReplayOutcome& out) {
  if (!feeder.Done()) return "trace not fully submitted";
  if (!server.IsQuiescent()) return "server not quiescent after the run";
  if (out.queries_submitted != static_cast<int64_t>(trace.queries.size()) ||
      out.updates_submitted != static_cast<int64_t>(trace.updates.size())) {
    return "submitted counts differ from the trace";
  }
  if (out.queries_committed + out.queries_dropped + out.queries_rejected +
          out.queries_shed !=
      out.queries_submitted) {
    return "queries do not conserve: committed + dropped + rejected + shed "
           "!= submitted";
  }
  if (out.updates_applied + out.updates_invalidated != out.updates_submitted) {
    return "updates do not conserve: applied + invalidated != submitted";
  }
  return "";
}

}  // namespace

ReplayOutcome Replay(const ReplayInputs& inputs, LayerTrace* layers,
                     bool derive_locks) {
  const Workload& workload = *inputs.workload;
  const webdb::Trace& trace = *inputs.trace;
  const bool traced = layers != nullptr;
  SelfTimer timer;
  webdb::Tracer tracer;
  if (traced) SetAllocCounting(true);
  const uint64_t allocs_before = AllocCount();
  const int64_t start = HostNowNs();
  if (traced) layers->replay_start_ns = start;

  webdb::Simulator sim;
  webdb::Database db(trace.num_items);
  std::unique_ptr<webdb::CpuSetScheduler> scheduler =
      webdb::MakeScheduler(workload.spec);
  std::unique_ptr<webdb::AdmissionController> admission = webdb::MakeAdmission(
      workload.spec.admission, workload.spec.topology.num_cpus);
  std::optional<TimedScheduler> timed_scheduler;
  std::optional<TimedAdmission> timed_admission;
  webdb::ServerConfig config = workload.server;
  webdb::CpuSetScheduler* sched = scheduler.get();
  config.admission = admission.get();
  if (traced) {
    sched = &timed_scheduler.emplace(sched, &timer);
    if (admission != nullptr) {
      config.admission = &timed_admission.emplace(admission.get(), &timer);
    }
    config.tracer = &tracer;
  }
  webdb::WebDatabaseServer server(&sim, &db, sched, config);
  server.ReserveCapacity(trace.queries.size(), trace.updates.size());

  webdb::Rng qc_rng(inputs.qc_seed);
  const webdb::QcGenerator generator(workload.qc);
  Probe qc_probe;
  uint64_t qc_allocs = 0;
  webdb::TraceFeeder::QcAssigner assigner;
  if (traced) {
    assigner = [&](const webdb::QueryRecord&) {
      const uint64_t before = AllocCount();
      TimedCall timed(&timer, &qc_probe);
      webdb::QualityContract qc = generator.Next(qc_rng);
      qc_allocs += AllocCount() - before;
      return qc;
    };
  } else {
    assigner = [&](const webdb::QueryRecord&) {
      return generator.Next(qc_rng);
    };
  }
  webdb::TraceFeeder feeder(&server, &trace, std::move(assigner));
  feeder.Start();
  if (traced) {
    auto totals = [&] {
      LayerTotals t;
      for (const Probe& p : timed_scheduler->probes()) t.sched += p;
      if (timed_admission.has_value()) {
        t.admission += timed_admission->admit();
        t.admission += timed_admission->finished();
      }
      t.qc = qc_probe;
      return t;
    };
    RunBySecond(server, totals, layers);
  } else {
    server.Run();
  }

  ReplayOutcome out;
  out.wall_ns = HostNowNs() - start;
  if (traced) {
    layers->replay_end_ns = start + out.wall_ns;
    layers->replay_allocs = AllocCount() - allocs_before;
    SetAllocCounting(false);
  }

  const webdb::ServerMetrics& m = server.metrics();
  out.profit_pct = 100.0 * server.ledger().TotalPct();
  out.queries_submitted = m.queries_submitted;
  out.queries_committed = m.queries_committed;
  out.queries_dropped = m.queries_dropped;
  out.queries_rejected = m.queries_rejected;
  out.queries_shed = m.queries_shed;
  out.queries_fused = m.queries_fused;
  out.queries_cache_hits = m.queries_cache_hits;
  out.cache_fills = m.cache_fills;
  out.updates_submitted = m.updates_submitted;
  out.updates_applied = m.updates_applied;
  out.updates_invalidated = m.updates_invalidated;
  out.query_restarts = m.query_restarts;
  out.update_restarts = m.update_restarts;
  out.preemptions = m.preemptions;
  out.error = CheckOutcome(server, trace, feeder, out);
  out.end_state_hash = server.EndStateHash();

  if (traced) {
    layers->sched = timed_scheduler->probes();
    if (timed_admission.has_value()) {
      layers->admit = timed_admission->admit();
      layers->finished = timed_admission->finished();
    }
    layers->qc = qc_probe;
    layers->qc_allocs = qc_allocs;
    layers->sim_executed = sim.NumExecuted();
    layers->sim_cancelled = sim.stats().cancelled;
    layers->sim_callback_spills = sim.stats().callback_heap_spills;
    DigestEvents(server, tracer.events(), layers,
                 derive_locks ? &layers->locks : nullptr);
  }
  return out;
}

uint64_t RunExperimentHash(const ReplayInputs& inputs) {
  webdb::ExperimentOptions options;
  options.server = inputs.workload->server;
  options.qc_seed = inputs.qc_seed;
  options.qc = inputs.workload->qc;
  options.compute_end_state_hash = true;
  return webdb::RunExperiment(*inputs.trace, inputs.workload->spec, options)
      .end_state_hash;
}

LockReplayTimes ReplayLockSequence(const LockSequence& locks,
                                   std::string* error) {
  LockReplayTimes times;
  {
    webdb::LockManager manager;
    std::vector<webdb::ItemId> one_item(1);
    int64_t unresolved = 0;
    const int64_t start = HostNowNs();
    for (const LockSequence::LockOp& op : locks.lock_ops) {
      if (op.kind == LockSequence::Kind::kRelease) {
        manager.ReleaseAll(op.txn);
        continue;
      }
      const bool shared = op.kind == LockSequence::Kind::kAcquireShared;
      const webdb::LockMode mode =
          shared ? webdb::LockMode::kShared : webdb::LockMode::kExclusive;
      const std::vector<webdb::ItemId>* items = &one_item;
      if (shared) {
        items = &locks.query_items[webdb::TxnIndex(op.txn)];
      } else {
        one_item[0] = locks.update_items[webdb::TxnIndex(op.txn)];
      }
      if (!manager.Conflicts(op.txn, mode, *items).empty()) ++unresolved;
      manager.Acquire(op.txn, mode, *items);
    }
    times.lock_ns = HostNowNs() - start;
    if (unresolved != 0) {
      *error = "lock replay: " + std::to_string(unresolved) +
               " dispatches met unreleased conflicting locks";
    } else if (manager.NumLockedItems() != 0) {
      *error = "lock replay: locks left held at the end";
    }
  }
  {
    webdb::UpdateRegister update_register;
    const int64_t start = HostNowNs();
    for (const LockSequence::RegisterOp& op : locks.register_ops) {
      if (op.kind == LockSequence::RegisterKind::kRegister) {
        update_register.Register(op.item, op.txn);
      } else {
        update_register.Remove(op.item, op.txn);
      }
    }
    times.register_ns = HostNowNs() - start;
    if (error->empty() && update_register.Size() != 0) {
      *error = "register replay: entries left pending at the end";
    }
  }
  return times;
}

}  // namespace replay_bench
