#include "db/update_register.h"

#include "util/logging.h"

namespace webdb {

void UpdateRegister::ReserveItems(size_t num_items) {
  if (pending_.size() < num_items) pending_.resize(num_items, 0);
}

uint64_t UpdateRegister::Register(ItemId item, uint64_t txn_id) {
  WEBDB_CHECK(txn_id != 0);
  if (static_cast<size_t>(item) >= pending_.size()) {
    WEBDB_CHECK(item >= 0);  // a negative id lands here as a huge index
    pending_.resize(item + 1, 0);
  }
  const uint64_t invalidated = pending_[item];
  pending_[item] = txn_id;
  if (invalidated == 0) {
    ++size_;
  } else {
    ++total_invalidated_;
  }
  return invalidated;
}

bool UpdateRegister::Remove(ItemId item, uint64_t txn_id) {
  if (txn_id == 0 || PendingFor(item) != txn_id) return false;
  pending_[item] = 0;
  --size_;
  return true;
}

uint64_t UpdateRegister::PendingFor(ItemId item) const {
  return static_cast<size_t>(item) < pending_.size() ? pending_[item] : 0;
}

std::vector<std::pair<ItemId, uint64_t>> UpdateRegister::PendingEntries()
    const {
  std::vector<std::pair<ItemId, uint64_t>> entries;
  entries.reserve(size_);
  for (size_t item = 0; item < pending_.size(); ++item) {
    if (pending_[item] != 0) {
      entries.emplace_back(static_cast<ItemId>(item), pending_[item]);
    }
  }
  return entries;
}

}  // namespace webdb
