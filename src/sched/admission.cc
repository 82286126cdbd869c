#include "sched/admission.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

// --- TenantSet -------------------------------------------------------------

TenantSet::TenantSet() : tiers_(1) {}

TenantSet::TenantSet(std::vector<TenantTier> tiers) : tiers_(std::move(tiers)) {
  WEBDB_CHECK(!tiers_.empty());
  for (const TenantTier& tier : tiers_) {
    WEBDB_CHECK(tier.admission_weight > 0.0);
    WEBDB_CHECK(tier.traffic_share >= 0.0);
  }
}

std::optional<TenantSet> TenantSet::Parse(const std::string& spec) {
  std::vector<TenantTier> tiers;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    const size_t colon = field.find(':');
    if (field.empty() || colon == std::string::npos || colon == 0) {
      return std::nullopt;
    }
    TenantTier tier;
    tier.name = field.substr(0, colon);
    const std::string weight = field.substr(colon + 1);
    char* end = nullptr;
    tier.admission_weight = std::strtod(weight.c_str(), &end);
    if (weight.empty() || end == nullptr || *end != '\0' ||
        !(tier.admission_weight > 0.0)) {
      return std::nullopt;
    }
    tiers.push_back(std::move(tier));
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  if (tiers.empty()) return std::nullopt;
  return TenantSet(std::move(tiers));
}

const TenantTier& TenantSet::Tier(TenantId tenant) const {
  WEBDB_CHECK(tenant >= 0 && tenant < NumTiers());
  return tiers_[static_cast<size_t>(tenant)];
}

double TenantSet::WeightFor(TenantId tenant) const {
  if (tenant < 0 || tenant >= NumTiers()) return 1.0;
  return tiers_[static_cast<size_t>(tenant)].admission_weight;
}

std::string TenantSet::Spec() const {
  std::string out;
  char buffer[64];
  for (const TenantTier& tier : tiers_) {
    if (!out.empty()) out += ',';
    std::snprintf(buffer, sizeof(buffer), "%s:%g", tier.name.c_str(),
                  tier.admission_weight);
    out += buffer;
  }
  return out;
}

// --- QueueCapAdmission -----------------------------------------------------

QueueCapAdmission::QueueCapAdmission(int64_t max_queued_queries)
    : max_queued_(max_queued_queries) {
  WEBDB_CHECK(max_queued_queries > 0);
}

bool QueueCapAdmission::Admit(const Query&, const AdmissionContext& context) {
  if (context.queued_queries < max_queued_) return true;
  ++rejected_;
  return false;
}

// --- DbfAdmission ----------------------------------------------------------

DbfAdmission::DbfAdmission(Options options)
    : num_cpus_(options.num_cpus),
      supply_factor_(options.supply_factor),
      tenants_(std::move(options.tenants)) {
  WEBDB_CHECK(num_cpus_ >= 1);
  WEBDB_CHECK(supply_factor_ > 0.0);
  demand_.resize(static_cast<size_t>(num_cpus_));
}

double DbfAdmission::Worth(const Query& query, SimTime now) const {
  const SimDuration best_response = (now - query.arrival) + query.remaining;
  return (query.qc.QosProfit(best_response) + query.qc.qod_max()) /
         tenants_.WeightFor(query.tenant);
}

std::optional<DbfAdmission::Entry> DbfAdmission::DemandOf(const Query& query,
                                                          SimTime now) const {
  const SimDuration rt_max = query.qc.rt_max();
  if (rt_max <= 0) return std::nullopt;  // no QoS deadline: best effort
  Entry entry;
  entry.deadline = now + rt_max;
  entry.demand = static_cast<SimDuration>(
      std::llround(static_cast<double>(query.service_time) *
                   tenants_.WeightFor(query.tenant)));
  entry.demand = std::max<SimDuration>(entry.demand, 1);
  entry.query = &query;
  return entry;
}

bool DbfAdmission::FitsWith(int32_t cpu, SimTime deadline, SimDuration demand,
                            SimTime now,
                            const std::vector<TxnId>& excluded) const {
  WEBDB_DCHECK(cpu >= 0 && cpu < num_cpus_);
  // Demand of planned evictions, grouped by node deadline on this lane.
  std::map<SimTime, SimDuration> minus;
  for (TxnId id : excluded) {
    const auto it = entries_.find(id);
    WEBDB_DCHECK(it != entries_.end());
    if (it->second.cpu == cpu) minus[it->second.deadline] += it->second.demand;
  }
  const auto supply = [&](SimTime t) {
    return static_cast<double>(t - now) * supply_factor_;
  };
  double cum = 0.0;
  bool placed = false;
  for (const auto& [t, d] : demand_[static_cast<size_t>(cpu)]) {
    if (!placed && t >= deadline) {
      cum += static_cast<double>(demand);
      if (cum > supply(deadline)) return false;
      placed = true;
    }
    const auto minus_it = minus.find(t);
    const SimDuration node =
        d - (minus_it == minus.end() ? 0 : minus_it->second);
    WEBDB_DCHECK(node >= 0);
    cum += static_cast<double>(node);
    // Nodes before the new deadline are unaffected by the new demand; only
    // the new node and later ones need (re)checking.
    if (placed && cum > supply(t)) return false;
  }
  if (!placed) {
    cum += static_cast<double>(demand);
    if (cum > supply(deadline)) return false;
  }
  return true;
}

void DbfAdmission::Register(const Query& query, const Entry& entry) {
  WEBDB_DCHECK(entries_.count(query.id) == 0);
  entries_[query.id] = entry;
  demand_[static_cast<size_t>(entry.cpu)][entry.deadline] += entry.demand;
}

void DbfAdmission::Release(TxnId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const Entry& entry = it->second;
  auto& lane = demand_[static_cast<size_t>(entry.cpu)];
  const auto node = lane.find(entry.deadline);
  // The node may already be gone: PruneExpired drops past-deadline nodes
  // while their (late) queries are still in flight.
  if (node != lane.end()) {
    node->second -= entry.demand;
    if (node->second <= 0) lane.erase(node);
  }
  entries_.erase(it);
}

void DbfAdmission::PruneExpired(SimTime now) {
  for (auto& lane : demand_) {
    while (!lane.empty() && lane.begin()->first <= now) {
      lane.erase(lane.begin());
    }
  }
}

bool DbfAdmission::Admit(const Query& query, const AdmissionContext& context) {
  WEBDB_DCHECK(context.num_cpus == num_cpus_);
  PruneExpired(context.now);
  std::optional<Entry> want = DemandOf(query, context.now);
  if (!want) return true;  // no deadline, no demand: best effort

  static const std::vector<TxnId> kNoEvictions;
  for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    if (FitsWith(cpu, want->deadline, want->demand, context.now,
                 kNoEvictions)) {
      want->cpu = cpu;
      Register(query, *want);
      return true;
    }
  }

  // No lane fits. Plan the cheapest eviction set per lane among queued
  // queries whose tier-adjusted worth is strictly below the incoming one,
  // then commit the best plan — or reject without shedding anything.
  if (context.shed_sink == nullptr) {
    ++rejected_;
    return false;
  }
  const double incoming_worth = Worth(query, context.now);

  struct Candidate {
    double worth = 0.0;
    TxnId id = 0;
    int32_t cpu = -1;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    const double worth = Worth(*entry.query, context.now);
    if (worth < incoming_worth) candidates.push_back({worth, id, entry.cpu});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.worth != b.worth) return a.worth < b.worth;
              return a.id < b.id;  // deterministic tie-break
            });

  std::vector<TxnId> best_plan;
  double best_cost = 0.0;
  int32_t best_cpu = -1;
  for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    std::vector<TxnId> plan;
    double cost = 0.0;
    bool feasible = false;
    for (const Candidate& candidate : candidates) {
      if (candidate.cpu != cpu) continue;
      plan.push_back(candidate.id);
      cost += candidate.worth;
      if (FitsWith(cpu, want->deadline, want->demand, context.now, plan)) {
        feasible = true;
        break;
      }
    }
    if (feasible && (best_cpu < 0 || cost < best_cost)) {
      best_plan = std::move(plan);
      best_cost = cost;
      best_cpu = cpu;
    }
  }
  if (best_cpu < 0) {
    ++rejected_;
    return false;
  }

  for (TxnId id : best_plan) {
    // The sink calls back OnQueryFinished, releasing the victim's demand.
    if (context.shed_sink->Shed(id)) {
      ++shed_;
    } else {
      // The server no longer holds the victim in a queue (desync would be a
      // bug upstream); drop our bookkeeping so the lane is freed anyway.
      Release(id);
    }
    WEBDB_DCHECK(entries_.count(id) == 0);
  }
  WEBDB_DCHECK(
      FitsWith(best_cpu, want->deadline, want->demand, context.now,
               kNoEvictions));
  want->cpu = best_cpu;
  Register(query, *want);
  return true;
}

void DbfAdmission::OnQueryFinished(const Query& query, SimTime now) {
  (void)now;
  Release(query.id);
}

DbfAdmission::Placement DbfAdmission::PlacementOf(TxnId id) const {
  const auto it = entries_.find(id);
  WEBDB_CHECK(it != entries_.end());
  return Placement{it->second.cpu, it->second.deadline, it->second.demand};
}

SimDuration DbfAdmission::QueuedDemand(int32_t cpu) const {
  WEBDB_CHECK(cpu >= 0 && cpu < num_cpus_);
  SimDuration total = 0;
  for (const auto& [deadline, demand] : demand_[static_cast<size_t>(cpu)]) {
    (void)deadline;
    total += demand;
  }
  return total;
}

bool DbfAdmission::DemandFits(int32_t cpu, SimTime from_deadline,
                              SimTime now) const {
  WEBDB_CHECK(cpu >= 0 && cpu < num_cpus_);
  double cum = 0.0;
  for (const auto& [t, d] : demand_[static_cast<size_t>(cpu)]) {
    cum += static_cast<double>(d);
    if (t < from_deadline) continue;
    if (cum > static_cast<double>(t - now) * supply_factor_) return false;
  }
  return true;
}

void DbfAdmission::AuditInvariants(SimTime now) const {
  // Per-lane node sums must be reproducible from the tracked entries,
  // modulo nodes dropped by PruneExpired (those only ever shrink a lane).
  std::vector<std::map<SimTime, SimDuration>> rebuilt(
      static_cast<size_t>(num_cpus_));
  for (const auto& [id, entry] : entries_) {
    (void)id;
    WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                     entry.cpu >= 0 && entry.cpu < num_cpus_,
                     "dbf entry on unknown cpu lane");
    WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                     entry.demand > 0 && entry.query != nullptr,
                     "dbf entry with empty demand or dangling query");
    rebuilt[static_cast<size_t>(entry.cpu)][entry.deadline] += entry.demand;
  }
  for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    for (const auto& [t, d] : demand_[static_cast<size_t>(cpu)]) {
      const auto& lane = rebuilt[static_cast<size_t>(cpu)];
      const auto it = lane.find(t);
      // Pruning is lazy (runs at the next Admit), so a node may outlive its
      // deadline here — but never its entries.
      (void)now;
      WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                       it != lane.end() && it->second == d && d > 0,
                       "dbf demand node does not match tracked entries");
    }
  }
}

}  // namespace webdb
