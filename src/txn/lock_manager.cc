#include "txn/lock_manager.h"

#include <algorithm>
#include <string>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

void LockManager::ReserveItems(size_t num_items) {
  if (locks_.size() < num_items) locks_.resize(num_items);
}

const LockManager::ItemLocks* LockManager::Find(ItemId item) const {
  return static_cast<size_t>(item) < locks_.size() ? &locks_[item] : nullptr;
}

std::vector<ItemId>& LockManager::HeldBy(TxnId txn) {
  auto it = held_.find(txn);
  if (it != held_.end()) return it->second;
  if (spare_held_.empty()) return held_[txn];
  HeldIndex::node_type node = std::move(spare_held_.back());
  spare_held_.pop_back();
  node.key() = txn;
  return held_.insert(std::move(node)).position->second;
}

std::vector<TxnId> LockManager::Conflicts(
    TxnId txn, LockMode mode, const std::vector<ItemId>& items) const {
  std::vector<TxnId> out;
  for (ItemId item : items) {
    const ItemLocks* entry = Find(item);
    if (entry == nullptr) continue;
    if (entry->exclusive != 0 && entry->exclusive != txn) {
      out.push_back(entry->exclusive);
    }
    if (mode == LockMode::kExclusive) {
      for (TxnId holder : entry->shared) {
        if (holder != txn) out.push_back(holder);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LockManager::Acquire(TxnId txn, LockMode mode,
                          const std::vector<ItemId>& items) {
  // Lock-table probe on every dispatch: the conflict re-scan is O(items)
  // and the server has just resolved conflicts itself, so this whole
  // precondition block is debug-tier (2PL-HP conflict-freedom).
  WEBDB_DCHECK(txn != 0);
  if constexpr (audit::kEnabled) {
    WEBDB_AUDIT_THAT(audit::Invariant::kConflictFree,
                     Conflicts(txn, mode, items).empty(),
                     "Acquire with unresolved conflicts by txn " +
                         std::to_string(txn));
  } else {
    WEBDB_DCHECK_MSG(Conflicts(txn, mode, items).empty(),
                     "Acquire with unresolved conflicts");
  }
  std::vector<ItemId>* held = nullptr;  // looked up at the first grant
  for (ItemId item : items) {
    if (static_cast<size_t>(item) >= locks_.size()) {
      WEBDB_CHECK(item >= 0);  // a negative id lands here as a huge index
      locks_.resize(item + 1);
    }
    ItemLocks& entry = locks_[item];
    const bool was_locked = !entry.Empty();
    if (mode == LockMode::kExclusive) {
      if (entry.exclusive == txn) continue;  // re-entrant
      entry.exclusive = txn;
    } else {
      if (std::find(entry.shared.begin(), entry.shared.end(), txn) !=
          entry.shared.end()) {
        continue;  // re-entrant
      }
      entry.shared.push_back(txn);
    }
    if (!was_locked) ++locked_items_;
    if (held == nullptr) held = &HeldBy(txn);
    held->push_back(item);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (ItemId item : it->second) {
    WEBDB_DCHECK(static_cast<size_t>(item) < locks_.size());
    ItemLocks& entry = locks_[item];
    // An item listed twice (shared, then exclusive) is released in full by
    // its first listing; the second finds nothing left to release.
    const bool was_locked = !entry.Empty();
    if (entry.exclusive == txn) entry.exclusive = 0;
    auto holder = std::find(entry.shared.begin(), entry.shared.end(), txn);
    if (holder != entry.shared.end()) {
      *holder = entry.shared.back();
      entry.shared.pop_back();
    }
    if (was_locked && entry.Empty()) --locked_items_;
  }
  HeldIndex::node_type node = held_.extract(it);
  node.mapped().clear();
  spare_held_.push_back(std::move(node));
}

bool LockManager::HoldsAny(TxnId txn) const { return held_.count(txn) > 0; }

TxnId LockManager::ExclusiveHolder(ItemId item) const {
  const ItemLocks* entry = Find(item);
  return entry == nullptr ? 0 : entry->exclusive;
}

std::vector<TxnId> LockManager::SharedHolders(ItemId item) const {
  const ItemLocks* entry = Find(item);
  if (entry == nullptr) return {};
  return entry->shared;
}

void LockManager::AuditConsistency() const {
  using audit::Invariant;
  // Count how many (txn, item) lock grants the table side describes; the
  // held_ side must describe exactly the same number, and every held item
  // must be found in the table — together that proves the two indexes are
  // the same relation (no leaked and no phantom locks).
  size_t table_grants = 0;
  size_t locked = 0;
  std::vector<TxnId> holders;
  for (size_t item = 0; item < locks_.size(); ++item) {
    const ItemLocks& entry = locks_[item];
    if (entry.Empty()) continue;
    ++locked;
    WEBDB_AUDIT_THAT(
        Invariant::kLockTableConsistent,
        entry.exclusive == 0 || entry.shared.empty(),
        "item " + std::to_string(item) + " has shared and exclusive holders");
    holders = entry.shared;
    std::sort(holders.begin(), holders.end());
    WEBDB_AUDIT_THAT(
        Invariant::kLockTableConsistent,
        std::adjacent_find(holders.begin(), holders.end()) == holders.end(),
        "item " + std::to_string(item) + " lists a shared holder twice");
    table_grants += entry.shared.size() + (entry.exclusive != 0 ? 1 : 0);
  }
  WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent, locked == locked_items_,
                   "locked-item count " + std::to_string(locked_items_) +
                       " but the table locks " + std::to_string(locked));
  size_t held_grants = 0;
  // lint:allow(unordered-serialization) commutative grant count
  for (const auto& [txn, items] : held_) {
    WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent, !items.empty(),
                     "txn " + std::to_string(txn) + " holds an empty set");
    held_grants += items.size();
    for (ItemId item : items) {
      const ItemLocks* entry = Find(item);
      const bool granted =
          entry != nullptr &&
          (entry->exclusive == txn ||
           std::find(entry->shared.begin(), entry->shared.end(), txn) !=
               entry->shared.end());
      WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent, granted,
                       "txn " + std::to_string(txn) + " lists item " +
                           std::to_string(item) +
                           " but the lock table does not grant it");
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent,
                   table_grants == held_grants,
                   "lock table describes " + std::to_string(table_grants) +
                       " grants but held index describes " +
                       std::to_string(held_grants));
}

}  // namespace webdb
