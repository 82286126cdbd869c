// One replay of a workload's trace through the public WebDatabaseServer
// API, with its output check, and the traced variant that records what the
// per-layer metrics are computed from.

#ifndef WEBDB_BENCH_REPLAY_REPLAY_H_
#define WEBDB_BENCH_REPLAY_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/data_item.h"
#include "layer_probe.h"
#include "trace/trace.h"
#include "txn/transaction.h"
#include "workloads.h"

namespace replay_bench {

// Heap allocations counted by the benchmark binary's operator new while
// counting is on.
uint64_t AllocCount();
void SetAllocCounting(bool on);

struct ReplayInputs {
  const Workload* workload = nullptr;
  const webdb::Trace* trace = nullptr;
  uint64_t qc_seed = kPaperQcSeed;
};

struct ReplayOutcome {
  // Host time from building the simulator, database and server to the
  // drained end of the run.
  int64_t wall_ns = 0;
  uint64_t end_state_hash = 0;
  double profit_pct = 0.0;

  int64_t queries_submitted = 0;
  int64_t queries_committed = 0;
  int64_t queries_dropped = 0;
  int64_t queries_rejected = 0;
  int64_t queries_shed = 0;
  int64_t queries_fused = 0;
  int64_t queries_cache_hits = 0;
  int64_t cache_fills = 0;
  int64_t updates_submitted = 0;
  int64_t updates_applied = 0;
  int64_t updates_invalidated = 0;
  int64_t query_restarts = 0;
  int64_t update_restarts = 0;
  int64_t preemptions = 0;

  // Why the output check failed; empty when it passed.
  std::string error;

  int64_t Txns() const { return queries_submitted + updates_submitted; }
  double QueryFailPct() const;
};

// Host time of one simulated second of a traced replay, with the time its
// wrapped layers took inside it (aggregates, not one span per call).
struct SecondSpan {
  int64_t sim_second = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Probe sched;
  Probe admission;
  Probe qc;
};

// The traced run's lock-manager and update-register operations, derived
// from its Tracer stream: a dispatch acquires (after the conflict scan the
// server makes first); commit, restart, drop, shed and invalidate release;
// preempt keeps its locks. An update's arrival and restart register it, its
// dispatch and invalidation remove it.
struct LockSequence {
  enum class Kind : uint8_t { kAcquireShared, kAcquireExclusive, kRelease };
  struct LockOp {
    Kind kind;
    webdb::TxnId txn;
  };
  enum class RegisterKind : uint8_t { kRegister, kRemove };
  struct RegisterOp {
    RegisterKind kind;
    webdb::ItemId item;
    webdb::TxnId txn;
  };

  std::vector<LockOp> lock_ops;
  std::vector<RegisterOp> register_ops;
  // Item sets, indexed by query index; updates lock their one item.
  std::vector<std::vector<webdb::ItemId>> query_items;
  std::vector<webdb::ItemId> update_items;

  int64_t acquires = 0;
  int64_t releases = 0;
  // Drops of fused members, which hold no locks and release none.
  int64_t member_drops = 0;
  int64_t update_dispatches = 0;
};

// What one traced replay records for the per-layer metrics.
struct LayerTrace {
  // Calibrated just before the replay.
  TimerCalibration timer;
  SchedProbes sched{};
  Probe admit;
  Probe finished;
  Probe qc;
  uint64_t qc_allocs = 0;
  uint64_t replay_allocs = 0;
  uint64_t sim_executed = 0;
  uint64_t sim_cancelled = 0;
  uint64_t sim_callback_spills = 0;
  int64_t peak_queued_queries = 0;
  int64_t replay_start_ns = 0;
  int64_t replay_end_ns = 0;
  std::vector<SecondSpan> seconds;
  // Simulated submit-to-first-dispatch wait of every dispatched query.
  std::vector<double> query_wait_ms;
  // Filled only when requested (it is the same on every replay).
  LockSequence locks;
};

// Replays `inputs` untraced when `layers` is null. Otherwise wraps the
// scheduler, admission controller and QC assigner in timed probes, attaches
// a Tracer, drives the run one Simulator::Step at a time to cut it into
// simulated seconds, and fills `layers`; `derive_locks` also derives the
// lock and register sequence.
ReplayOutcome Replay(const ReplayInputs& inputs, LayerTrace* layers,
                     bool derive_locks);

// The end-state hash RunExperiment gives for the same trace, spec, server
// settings and QC seed.
uint64_t RunExperimentHash(const ReplayInputs& inputs);

// Replays `locks` against fresh LockManager / UpdateRegister instances and
// returns each one's host time. Fills `error` when the sequence is not
// consistent (a conflict left unresolved at a dispatch, or locks or
// register entries left over at the end).
struct LockReplayTimes {
  int64_t lock_ns = 0;
  int64_t register_ns = 0;
};
LockReplayTimes ReplayLockSequence(const LockSequence& locks,
                                   std::string* error);

}  // namespace replay_bench

#endif  // WEBDB_BENCH_REPLAY_REPLAY_H_
