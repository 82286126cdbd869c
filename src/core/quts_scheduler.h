// QUTS — Query-Update Time-Sharing, the paper's two-level scheduler
// (Section 4, pseudo-code in Table 2), on a set of CPUs.
//
// High level: the query CPU share ρ is re-derived every adaptation period ω
// from the QCs submitted during the previous period (Eq. 5) and smoothed
// with aging factor α (Eq. 6). Time is sliced into atoms of length τ; at
// each atom boundary (or whenever the picked queue empties) the query queue
// is chosen with probability ρ, the update queue otherwise.
//
// Low level: each queue orders its transactions independently — VRD for
// queries and FIFO for updates by default, any policy from
// sched/query_policy.h / sched/update_policy.h otherwise.
//
// CPUs: the symbol space is hash-partitioned into one shard per CPU; each
// shard is a full Table 2 machine — its own dual queues, ρ, atom clock,
// slicing accumulator and ξ stream. A transaction's home shard is the
// shard of its first item (queries) or its item (updates); restarts and
// preempt-resumes always requeue home. CPU c serves shard c. With one CPU
// there is one shard holding every transaction, and the scheduler is
// exactly the paper's. Two mechanisms only matter with more than one shard:
//
//   * Global ρ allocation. Shard windows share one adaptation clock. At
//     each boundary every shard derives its local Eq. 5 optimum and the
//     allocator blends it with the fleet-wide optimum, weighted by the
//     shard's fraction of the window's submitted profit mass: busy shards
//     trust their local demand mix, idle shards inherit the global share
//     instead of free-running on stale state. The blend then ages through
//     Eq. 6 as usual. A lone shard carries all the mass, so its weight is
//     exactly 1 and the allocator reduces to Eq. 5-6.
//
//   * Pull-based work stealing. A CPU whose home shard is empty on both
//     sides steals from the first non-empty victim, scanning shards in
//     ascending order from a start position drawn from a dedicated seeded
//     stream. The steal pops through the victim's own side logic, so the
//     victim's ρ split is respected even under stealing. Stolen work still
//     requeues home on preemption/restart.
//
// Adaptation is processed lazily: every entry point first folds in the
// adaptation-period boundaries that elapsed since the last call, so the
// scheduler needs no direct handle on the simulator; the server wakes each
// CPU at its shard's atom boundaries via NextDecisionTime().
//
// Determinism: the ξ streams, the item placement and the steal stream all
// derive from the base seed (util/seed.h), and the server drives CPUs in
// fixed ascending order, so a (seed, trace) pair fully determines the
// schedule at any CPU count.

#ifndef WEBDB_CORE_QUTS_SCHEDULER_H_
#define WEBDB_CORE_QUTS_SCHEDULER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/cpu_set_scheduler.h"
#include "sched/query_policy.h"
#include "sched/txn_queue.h"
#include "sched/update_policy.h"
#include "util/rng.h"
#include "util/time.h"

namespace webdb {

// How the side of each atom is chosen from ρ.
enum class QutsSlicing {
  kRandom,         // Table 2: ξ ~ U[0,1), query side iff ξ < ρ (paper)
  kDeterministic,  // error-accumulator (Bresenham) slicing: same long-run
                   // share, no variance — an ablation of the paper's
                   // randomized choice
};

class QutsScheduler final : public CpuSetScheduler {
 public:
  struct Options {
    SimDuration atom_time = Millis(10);         // τ (paper default)
    SimDuration adaptation_period = Millis(1000);  // ω (paper default)
    double alpha = 0.2;     // aging factor (paper: "a small value")
    double initial_rho = 0.75;
    QutsSlicing slicing = QutsSlicing::kRandom;
    // When true, ρ stays at initial_rho forever (Eq. 5-6 adaptation off).
    // Used to validate the Eq. 3 profit model: sweep a forced ρ and compare
    // the measured profit curve against QOSmax·ρ + QODmax·ρ(1-ρ).
    bool freeze_rho = false;
    // Class-aware atom sizing (DESIGN.md §13): when the query-side head is
    // a scan-class query (moving-average / aggregation), the atom opening
    // on the query side runs for scan_atom_factor * τ, so heavy scans — and
    // the fusion groups riding on them — finish within one atom instead of
    // paying extra preempt/resume switches. 1.0 (the default) disables the
    // scaling bit-for-bit.
    double scan_atom_factor = 1.0;
    QueryPolicy query_policy = QueryPolicy::kVrd;
    UpdatePolicy update_policy = UpdatePolicy::kFifo;
    const std::vector<double>* item_weights = nullptr;
    uint64_t seed = 42;     // for the ξ draws
    // Record (time, ρ) at every adaptation (Figure 9d). Cheap; on by
    // default.
    bool record_rho_series = true;
  };

  // One shard per CPU of `topology`; the default is the paper's single-CPU
  // scheduler.
  explicit QutsScheduler(Options options,
                         SchedulerTopology topology = SchedulerTopology());

  std::string Name() const override { return "QUTS"; }
  int num_cpus() const override { return num_shards(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  void OnQueryArrival(Query* query, SimTime now) override;
  void OnUpdateArrival(Update* update, SimTime now) override;
  void Requeue(Transaction* txn, SimTime now) override;
  Transaction* PopNext(CpuId cpu, SimTime now) override;
  bool ShouldPreempt(CpuId cpu, const Transaction& running,
                     SimTime now) override;
  SimTime NextDecisionTime(CpuId cpu, SimTime now) override;
  bool HasWork() const override;
  int64_t NumQueuedQueries() const override;
  int64_t NumQueuedUpdates() const override;
  void RemoveQueued(Transaction* txn, SimTime now) override;

  // Fusion is per-shard: the domain is the home shard when every item of
  // the query lives there, -1 (never fuse) when the item set spans shards.
  int FusionDomain(const Query& query) const override;

  // Cross-shard rendezvous (DESIGN.md §14): queries spanning shards get a
  // stable domain id interned per sorted-unique shard set, so look-alikes
  // with matching shard-set signatures may fuse. Ids start at num_shards()
  // (disjoint from FusionDomain's range) and grow in first-sight order —
  // deterministic because arrivals are.
  int RendezvousDomain(const Query& query) override;

  // Generic queue gauges plus scheduler.quts.{rho, adaptations,
  // atom.redraws, queue.queries, queue.updates, steals, shards} and
  // per-shard scheduler.quts.shard<k>.rho. rho is the mean across shards.
  void ExportStats(MetricRegistry& registry) const override;

  double rho(int shard = 0) const { return shards_[shard].rho; }
  TxnKind current_side(int shard = 0) const { return shards_[shard].side; }
  // Mean ρ across shards, recorded at every adaptation boundary (Figure
  // 9d); with one shard, the paper's ρ series.
  const std::vector<std::pair<SimTime, double>>& rho_series() const {
    return rho_series_;
  }
  int64_t steals() const { return steals_; }
  const Options& options() const { return options_; }

  // Shard an item homes on. Exposed for the determinism tests.
  int ShardOfItem(ItemId item) const;

 private:
  // One Table 2 machine: dual queues plus the high-level state.
  struct Shard {
    Rng rng;
    double rho;
    double slice_credit = 0.0;  // deterministic slicing accumulator
    TxnKind side = TxnKind::kQuery;
    SimTime atom_expiry = 0;  // <= now means "no atom in progress"
    double window_qos_max = 0.0;
    double window_qod_max = 0.0;
    int64_t redraws = 0;  // atoms started (side redraws)
    TxnQueue queries;
    TxnQueue updates;

    Shard(uint64_t seed, double initial_rho) : rng(seed), rho(initial_rho) {}

    TxnQueue& QueueFor(TxnKind side_kind) {
      return side_kind == TxnKind::kQuery ? queries : updates;
    }
    bool Empty() const { return queries.Empty() && updates.Empty(); }
  };

  // Home shard of a transaction: shard of its first item (query) or its
  // item (update).
  int ShardOf(const Transaction& txn) const;
  // Folds in every shared adaptation boundary elapsed up to `now` (Eq.
  // 5-6), rebalancing each shard's ρ through the global allocator.
  void MaybeAdapt(SimTime now);
  // Draws the shard's next atom side from its ρ (ξ in random mode, the
  // credit accumulator in deterministic mode) and starts a fresh atom.
  // Does not commit the side: the caller decides how an empty drawn queue
  // falls over (idle CPU vs a running transaction occupying its side).
  TxnKind DrawSide(Shard& shard, SimTime now);
  // Idle-CPU redraw at `now`: commits the drawn side, falling over to the
  // other side if the drawn queue is empty and the other is not.
  void Redraw(Shard& shard, SimTime now);
  // Pops the shard's next transaction per Table 2.
  Transaction* PopFromShard(Shard& shard, SimTime now);
  // Atom length for an atom opening on `side` of `shard`: τ, scaled by
  // scan_atom_factor when a scan-class query heads the query queue.
  SimDuration AtomLength(const Shard& shard, TxnKind side) const;
  SimDuration AtomLengthFor(const Transaction& txn) const;

  Options options_;
  bool enable_stealing_;
  Rng steal_rng_;
  std::vector<Shard> shards_;
  uint64_t shard_salt_;

  SimTime window_start_ = 0;
  int64_t adaptations_ = 0;  // Eq. 5-6 boundaries folded in so far
  int64_t steals_ = 0;
  std::vector<std::pair<SimTime, double>> rho_series_;

  // Sorted-unique shard set -> interned rendezvous domain id. std::map for
  // deterministic audits; grows only while cross_shard_rendezvous is on.
  std::map<std::vector<int>, int> rendezvous_domains_;
};

}  // namespace webdb

#endif  // WEBDB_CORE_QUTS_SCHEDULER_H_
