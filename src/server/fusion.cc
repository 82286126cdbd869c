#include "server/fusion.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "db/database.h"
#include "util/logging.h"

namespace webdb {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

// Exact-match compatibility behind the signature: same service class and
// same item multiset. The signature is a fast filter; this is the truth.
bool ExactCompatible(const Query& a, const Query& b) {
  if (ServiceClassOf(a.type) != ServiceClassOf(b.type)) return false;
  if (a.items.size() != b.items.size()) return false;
  return std::is_permutation(a.items.begin(), a.items.end(), b.items.begin());
}

bool IsSubsetJoiner(const Query& query) {
  return query.items.size() == 1 &&
         ServiceClassOf(query.type) == ServiceClass::kInteractive;
}

}  // namespace

uint64_t FusionIndex::Signature(const Query& query) {
  // Hashes the items in sorted order. Item lists usually arrive sorted (every
  // single-item lookup does) and are hashed in place; the rest are sorted
  // into a per-thread buffer that is reused, so no call allocates once it
  // has grown.
  const std::vector<ItemId>* items = &query.items;
  if (!std::is_sorted(items->begin(), items->end())) {
    thread_local std::vector<ItemId> sorted;
    sorted.assign(items->begin(), items->end());
    std::sort(sorted.begin(), sorted.end());
    items = &sorted;
  }
  uint64_t hash = kFnvOffset;
  hash = MixU64(hash, static_cast<uint64_t>(ServiceClassOf(query.type)));
  for (ItemId item : *items) {
    hash = MixU64(hash, static_cast<uint64_t>(item) + 1);
  }
  return hash;
}

void FusionIndex::Insert(Query* query) {
  WEBDB_CHECK(query != nullptr && !query->items.empty());
  // Double-indexing would double-count size_ and leave a dangling id in
  // whichever bucket Remove cleans second; refuse loudly instead.
  WEBDB_CHECK(!Contains(*query));
  exact_[Signature(*query)].entries.emplace_back(query->id, query);
  if (IsSubsetJoiner(*query)) {
    single_[query->items[0]].push_back(query->id);
  }
  ++size_;
}

void FusionIndex::Remove(const Query& query) {
  // Symmetrically idempotent: each side erases its entry iff present, so
  // every dequeue path may call this untracked and a repeated Remove is a
  // no-op on both bucket tables. size_ follows the exact_ side, which holds
  // one entry per indexed query.
  bool was_indexed = false;
  const auto it = exact_.find(Signature(query));
  if (it != exact_.end()) {
    auto& entries = it->second.entries;
    const auto entry = std::find_if(
        entries.begin(), entries.end(),
        [&](const std::pair<TxnId, const Query*>& e) {
          return e.first == query.id;
        });
    if (entry != entries.end()) {
      was_indexed = true;
      entries.erase(entry);
      if (entries.empty()) exact_.erase(it);
    }
  }
  if (IsSubsetJoiner(query)) {
    const auto single_it = single_.find(query.items[0]);
    if (single_it != single_.end()) {
      auto& ids = single_it->second;
      const auto id_it = std::find(ids.begin(), ids.end(), query.id);
      if (id_it != ids.end()) {
        ids.erase(id_it);
        if (ids.empty()) single_.erase(single_it);
      }
    }
  }
  if (was_indexed) --size_;
}

bool FusionIndex::Contains(const Query& query) const {
  const auto it = exact_.find(Signature(query));
  if (it == exact_.end()) return false;
  for (const auto& [id, entry] : it->second.entries) {
    if (id == query.id) return true;
  }
  return false;
}

void FusionIndex::CollectCandidates(const Query& leader, bool subset,
                                    int max_members,
                                    std::vector<TxnId>* out) const {
  if (max_members <= 0) return;
  // "Already collected" membership: linear scan of `out` while it is small
  // (the common case — groups of a handful), a hash set once it grows past
  // kLinearTakenScan so large max_group_size stays O(n) per dispatch. The
  // set is membership-only — never iterated — so determinism is untouched.
  constexpr size_t kLinearTakenScan = 16;
  std::unordered_set<TxnId> taken_set;
  bool use_set = out->size() > kLinearTakenScan;
  if (use_set) taken_set.insert(out->begin(), out->end());
  const auto taken = [&](TxnId id) {
    if (id == leader.id) return true;
    if (use_set) return taken_set.count(id) != 0;
    return std::find(out->begin(), out->end(), id) != out->end();
  };
  const auto take = [&](TxnId id) {
    out->push_back(id);
    if (!use_set && out->size() > kLinearTakenScan) {
      use_set = true;
      taken_set.insert(out->begin(), out->end());
    } else if (use_set) {
      taken_set.insert(id);
    }
  };

  const auto exact_it = exact_.find(Signature(leader));
  if (exact_it != exact_.end()) {
    for (const auto& [id, candidate] : exact_it->second.entries) {
      if (static_cast<int>(out->size()) >= max_members) return;
      if (taken(id) || !ExactCompatible(leader, *candidate)) continue;
      take(id);
    }
  }
  if (!subset) return;
  // Subset pass in the leader's own item order: a lookup on item X joins
  // because the covering scan reads X anyway. Repeated leader items scan
  // their single_ bucket once (first occurrence wins; duplicates used to
  // rescan the bucket only for taken() to drop every hit again).
  for (size_t i = 0; i < leader.items.size(); ++i) {
    const ItemId item = leader.items[i];
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) {
      if (leader.items[j] == item) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    const auto single_it = single_.find(item);
    if (single_it == single_.end()) continue;
    for (TxnId id : single_it->second) {
      if (static_cast<int>(out->size()) >= max_members) return;
      if (taken(id)) continue;
      take(id);
    }
  }
}

void FusionResultCache::Fill(const Query& query,
                             std::shared_ptr<const FusionResult> result,
                             int domain, SimTime now, SimDuration ttl,
                             const Database& db) {
  WEBDB_CHECK(result != nullptr && !query.items.empty());
  const uint64_t sig = FusionIndex::Signature(query);
  const auto existing = entries_.find(sig);
  if (existing != entries_.end()) EraseEntry(existing);

  Entry entry;
  entry.source = query.id;
  entry.result = std::move(result);
  entry.service_class = ServiceClassOf(query.type);
  entry.sorted_items = query.items;
  std::sort(entry.sorted_items.begin(), entry.sorted_items.end());
  entry.domain = domain;
  entry.commit_time = now;
  entry.expiry = now + ttl;
  entry.arrival_seqs.reserve(entry.sorted_items.size());
  entry.applied_seqs.reserve(entry.sorted_items.size());
  for (ItemId item : entry.sorted_items) {
    const DataItem& data = db.Item(item);
    entry.arrival_seqs.push_back(data.arrival_seq);
    entry.applied_seqs.push_back(data.applied_seq);
  }
  // Reverse-index rows, one per distinct item (sorted_items may carry
  // duplicates; EraseEntry skips them the same way).
  ItemId prev = kInvalidItem;
  for (ItemId item : entry.sorted_items) {
    if (item == prev) continue;
    prev = item;
    by_item_[item].push_back(sig);
  }
  entries_[sig] = std::move(entry);
}

const FusionResultCache::Entry* FusionResultCache::Lookup(const Query& query,
                                                          bool subset,
                                                          SimTime now) {
  // Exact shape first: same signature, verified by class + sorted items
  // (the signature is a fast filter, the compare is the truth).
  const uint64_t sig = FusionIndex::Signature(query);
  const auto it = entries_.find(sig);
  if (it != entries_.end() &&
      it->second.service_class == ServiceClassOf(query.type) &&
      it->second.sorted_items.size() == query.items.size() &&
      std::is_permutation(query.items.begin(), query.items.end(),
                          it->second.sorted_items.begin())) {
    // TTL is inclusive: a lookup exactly at expiry still hits.
    if (now <= it->second.expiry) return &it->second;
    EraseEntry(it);
  }
  if (!subset || !IsSubsetJoiner(query)) return nullptr;
  const auto row = by_item_.find(query.items[0]);
  if (row == by_item_.end()) return nullptr;
  // Reap expired covering entries in row order, then pick the freshest
  // survivor (ties broken by lowest signature — a total, host-independent
  // order). EraseEntry drops the reaped signature from this row in place,
  // where it sits once, and drops the row with its last signature.
  std::vector<uint64_t>& sigs = row->second;
  for (size_t i = 0; i < sigs.size();) {
    const auto e = entries_.find(sigs[i]);
    if (e == entries_.end() || now <= e->second.expiry) {
      ++i;
      continue;
    }
    const bool last = sigs.size() == 1;
    EraseEntry(e);
    if (last) return nullptr;
  }
  const Entry* best = nullptr;
  uint64_t best_sig = 0;
  for (uint64_t s : sigs) {
    const auto e = entries_.find(s);
    WEBDB_CHECK(e != entries_.end());
    const Entry& entry = e->second;
    if (best == nullptr || entry.commit_time > best->commit_time ||
        (entry.commit_time == best->commit_time && s < best_sig)) {
      best = &entry;
      best_sig = s;
    }
  }
  return best;
}

void FusionResultCache::InvalidateItem(ItemId item) {
  // Each EraseEntry drops its signature from this row, and the row itself
  // with the last one. Erasure order does not matter: every row keeps its
  // survivors in their order.
  for (auto row = by_item_.find(item); row != by_item_.end();
       row = by_item_.find(item)) {
    const auto it = entries_.find(row->second.back());
    WEBDB_CHECK(it != entries_.end());
    EraseEntry(it);
  }
}

void FusionResultCache::EraseEntry(std::map<uint64_t, Entry>::iterator it) {
  const uint64_t sig = it->first;
  ItemId prev = kInvalidItem;
  for (ItemId item : it->second.sorted_items) {
    if (item == prev) continue;
    prev = item;
    const auto row = by_item_.find(item);
    WEBDB_CHECK(row != by_item_.end());
    auto& sigs = row->second;
    const auto sig_it = std::find(sigs.begin(), sigs.end(), sig);
    WEBDB_CHECK(sig_it != sigs.end());
    sigs.erase(sig_it);
    if (sigs.empty()) by_item_.erase(row);
  }
  entries_.erase(it);
}

}  // namespace webdb
