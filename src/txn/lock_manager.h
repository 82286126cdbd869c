// 2PL-HP lock manager (Two Phase Locking - High Priority, Abbott &
// Garcia-Molina), specialized for the paper's workload: read-only queries
// acquire shared locks on their whole item set at dispatch; blind updates
// acquire one exclusive lock.
//
// Conflict *detection* lives here; conflict *resolution* (restarting the
// lower-priority holder, dropping the older update) is driven by the server,
// which knows the schedulers' current priorities. With a single CPU, a
// conflict can only involve the transaction being dispatched and
// transactions that were preempted while holding locks.
//
// Layout (DESIGN.md §9): item ids are dense (0..N-1), so the lock table is a
// vector indexed by item — an exclusive holder plus a small vector of shared
// holders — that grows on demand to the largest id seen. The per-transaction
// held-items index recycles its map nodes (and their item vectors'
// capacity), so lock traffic stops allocating once both sides have reached
// their high-water marks.

#ifndef WEBDB_TXN_LOCK_MANAGER_H_
#define WEBDB_TXN_LOCK_MANAGER_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "db/data_item.h"
#include "txn/transaction.h"

namespace webdb {

enum class LockMode { kShared, kExclusive };

class LockManager {
 public:
  LockManager() = default;

  // Pre-sizes the lock table for item ids [0, num_items). Larger ids still
  // grow it on demand.
  void ReserveItems(size_t num_items);

  // Transactions (other than `txn`) whose current locks conflict with `txn`
  // locking `items` in `mode`. Duplicates removed; order unspecified.
  std::vector<TxnId> Conflicts(TxnId txn, LockMode mode,
                               const std::vector<ItemId>& items) const;

  // Acquires locks on `items` in `mode`. All conflicts must have been
  // resolved (checked). Re-entrant acquisition by the same holder is a no-op
  // per item.
  void Acquire(TxnId txn, LockMode mode, const std::vector<ItemId>& items);

  // Releases every lock held by `txn` (commit, restart, or abort).
  void ReleaseAll(TxnId txn);

  bool HoldsAny(TxnId txn) const;
  // Exclusive holder of `item`, or 0.
  TxnId ExclusiveHolder(ItemId item) const;
  // Shared holders of `item` (order unspecified).
  std::vector<TxnId> SharedHolders(ItemId item) const;

  size_t NumLockedItems() const { return locked_items_; }

  // Deep consistency audit (invariant [lock-table-consistent], DESIGN.md
  // §8): the per-item lock table and the per-transaction held-items index
  // must describe the same set of locks, no item may carry shared and
  // exclusive holders simultaneously (2PL-HP resolves every conflict before
  // Acquire) or list a shared holder twice, and the locked-item count must
  // match the table. Aborts on violation. O(items + locks);
  // compiled in every build, called automatically under -DWEBDB_AUDIT=ON
  // and directly by tests.
  void AuditConsistency() const;

 private:
  struct ItemLocks {
    TxnId exclusive = 0;
    std::vector<TxnId> shared;  // distinct holders, order unspecified
    bool Empty() const { return exclusive == 0 && shared.empty(); }
  };
  using HeldIndex = std::unordered_map<TxnId, std::vector<ItemId>>;

  // Table entry of `item`, or nullptr when it lies beyond the table (and so
  // is unlocked).
  const ItemLocks* Find(ItemId item) const;
  // `txn`'s held-items list, created from a recycled node if need be.
  std::vector<ItemId>& HeldBy(TxnId txn);

  std::vector<ItemLocks> locks_;  // indexed by ItemId
  size_t locked_items_ = 0;       // entries with at least one holder
  HeldIndex held_;                // only transactions holding a lock
  // Nodes released by ReleaseAll, item vectors cleared but keeping their
  // capacity, for HeldBy to reuse.
  std::vector<HeldIndex::node_type> spare_held_;
};

}  // namespace webdb

#endif  // WEBDB_TXN_LOCK_MANAGER_H_
