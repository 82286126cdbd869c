// Exhaustive QUTS Table-2 protocol check (core/quts_protocol.h).
//
// A driver arranges the real QutsScheduler — at one CPU and at two — into
// every abstract (state, event) pair of the declarative transition table
// and compares the observed action against RequiredAction. The regression
// fixtures reintroduce the two historical hand-fixed bugs into the
// reference model and prove the checker rejects exactly them, i.e. it would
// have flagged both defects before merge.

#include "core/quts_protocol.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "test_txns.h"
#include "util/rng.h"
#include "util/seed.h"
#include "util/time.h"

namespace webdb {
namespace {

constexpr SimDuration kTau = Millis(10);

TxnKind RunningKindOf(QutsRunning running) {
  return running == QutsRunning::kQuery ? TxnKind::kQuery : TxnKind::kUpdate;
}

bool HasQueued(QutsQueues queues, TxnKind kind) {
  if (queues == QutsQueues::kBoth) return true;
  if (queues == QutsQueues::kQueryOnly) return kind == TxnKind::kQuery;
  if (queues == QutsQueues::kUpdateOnly) return kind == TxnKind::kUpdate;
  return false;
}

// The ξ draw QutsScheduler makes at ρ = 1/2 from a given stream.
TxnKind DrawFrom(Rng& rng) {
  return rng.NextDouble() < 0.5 ? TxnKind::kQuery : TxnKind::kUpdate;
}

// Smallest seed whose ξ stream (after `transform`ing the seed the way the
// scheduler under test does) opens with exactly {first, second}. The
// drivers use it to make "the next draw picks side X" a constructible
// arrangement instead of a probabilistic one.
template <typename SeedTransform>
uint64_t SeedForDraws(TxnKind first, TxnKind second, SeedTransform transform) {
  for (uint64_t candidate = 1;; ++candidate) {
    Rng probe(transform(candidate));
    if (DrawFrom(probe) == first && DrawFrom(probe) == second) {
      return candidate;
    }
  }
}

QutsAction PopActionOf(const Transaction* txn) {
  if (txn == nullptr) return QutsAction::kPopNone;
  return txn->kind == TxnKind::kQuery ? QutsAction::kPopQuery
                                      : QutsAction::kPopUpdate;
}

// Arranges QutsScheduler on `num_cpus` CPUs, all work homed on shard 0 and
// driven from CPU 0: ρ frozen at 1/2 so the seeded ξ stream alone decides
// draws; a primer transaction of the state's side is popped at t=0 to
// commit the side and start the atom clock (consuming draw #1, which the
// seed pins to the side); the queue occupancy arrives mid-atom; the event
// fires either mid-atom (τ/2) or at the boundary (τ), where it consumes
// draw #2 — pinned to the state's `draw`. With more than one CPU the other
// shards stay empty, so shard 0's Table 2 machine must behave exactly like
// the single-CPU one (the steal scan finds no victims).
class RealQutsDriver final : public QutsProtocolDriver {
 public:
  explicit RealQutsDriver(int num_cpus) : num_cpus_(num_cpus) {}

  void Arrange(const QutsProtoState& state) override {
    pool_ = std::make_unique<TxnPool>();
    QutsScheduler::Options options;
    options.atom_time = kTau;
    options.adaptation_period = Seconds(1000);
    options.initial_rho = 0.5;
    options.freeze_rho = true;
    options.slicing = QutsSlicing::kRandom;
    // Shard 0 draws from Rng(seed) when it is the only shard and from
    // Rng(DeriveSeed(seed, 0)) among several; pin that stream.
    options.seed = SeedForDraws(state.side, state.draw, [this](uint64_t s) {
      return num_cpus_ == 1 ? s : DeriveSeed(s, 0);
    });
    SchedulerTopology topology;
    topology.num_cpus = num_cpus_;
    scheduler_ = std::make_unique<QutsScheduler>(options, topology);

    // An item that homes on shard 0 under this scheduler's salt.
    item_ = 0;
    while (scheduler_->ShardOfItem(item_) != 0) ++item_;

    Transaction* primer = Submit(state.side, 0);
    runner_ = scheduler_->PopNext(0, 0);
    EXPECT_EQ(runner_, primer);
    EXPECT_EQ(scheduler_->current_side(), state.side);

    if (HasQueued(state.queues, TxnKind::kQuery)) {
      Submit(TxnKind::kQuery, Millis(2));
    }
    if (HasQueued(state.queues, TxnKind::kUpdate)) {
      Submit(TxnKind::kUpdate, Millis(2));
    }
    // Arrivals are pure enqueues: they must not move the atom or the side.
    EXPECT_EQ(scheduler_->current_side(), state.side);
    now_ = state.atom == QutsAtom::kExpired ? kTau : kTau / 2;
  }

  QutsAction Fire(QutsProtoEvent event) override {
    switch (event) {
      case QutsProtoEvent::kPopNext:
        return PopActionOf(scheduler_->PopNext(0, now_));
      case QutsProtoEvent::kShouldPreempt:
        return scheduler_->ShouldPreempt(0, *runner_, now_)
                   ? QutsAction::kPreempt
                   : QutsAction::kKeepRunning;
      case QutsProtoEvent::kNextDecisionTime:
        return ClassifyWake(scheduler_->NextDecisionTime(0, now_), now_,
                            kTau);
    }
    return QutsAction::kPopNone;
  }

 private:
  Transaction* Submit(TxnKind kind, SimTime at) {
    if (kind == TxnKind::kQuery) {
      Query* query = pool_->NewQuery(at);
      query->items = {item_};
      scheduler_->OnQueryArrival(query, at);
      return query;
    }
    Update* update = pool_->NewUpdate(at, Millis(2), item_);
    scheduler_->OnUpdateArrival(update, at);
    return update;
  }

  int num_cpus_;
  ItemId item_ = 0;
  std::unique_ptr<TxnPool> pool_;
  std::unique_ptr<QutsScheduler> scheduler_;
  Transaction* runner_ = nullptr;
  SimTime now_ = 0;
};

std::string Report(const std::vector<QutsProtoViolation>& violations) {
  std::string out;
  for (const QutsProtoViolation& v : violations) out += v.Describe() + "\n";
  return out;
}

// --- the state space itself -------------------------------------------------

TEST(QutsProtocolTable, EnumerationIsExhaustive) {
  // 2 sides × 2 atom phases × 4 occupancies × 2 draws × 3 CPU states.
  EXPECT_EQ(AllQutsProtoStates().size(), 96u);
  // Valid pairs: PopNext and ShouldPreempt each see 32 states (idle CPU /
  // matching running side), NextDecisionTime sees both sets. The checker
  // walks every one of them.
  size_t valid = 0;
  for (const QutsProtoState& state : AllQutsProtoStates()) {
    for (QutsProtoEvent event : kAllQutsProtoEvents) {
      if (StateValidFor(state, event)) ++valid;
    }
  }
  EXPECT_EQ(valid, 128u);
}

TEST(QutsProtocolTable, RequiredActionWitnesses) {
  // The two historical defects, as direct table lookups.
  // Defect 1 witness: atom expired while a query runs, draw picks the
  // update side but no update is queued — Table 2 keeps the CPU.
  QutsProtoState witness1;
  witness1.side = TxnKind::kQuery;
  witness1.atom = QutsAtom::kExpired;
  witness1.queues = QutsQueues::kQueryOnly;
  witness1.draw = TxnKind::kUpdate;
  witness1.running = QutsRunning::kQuery;
  EXPECT_EQ(RequiredAction(witness1, QutsProtoEvent::kShouldPreempt),
            QutsAction::kKeepRunning);
  // Defect 2 witness: expired atom with queued work — the wake-up must be
  // a full atom out, never at/before now.
  QutsProtoState witness2 = witness1;
  EXPECT_EQ(RequiredAction(witness2, QutsProtoEvent::kNextDecisionTime),
            QutsAction::kWakeAfterFullAtom);
}

// --- real schedulers vs the table -------------------------------------------

TEST(QutsProtocolCheck, ReferenceModelMatchesTable) {
  ModelQutsDriver driver(QutsBug::kNone);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
}

TEST(QutsProtocolCheck, QutsSchedulerMatchesTable) {
  RealQutsDriver driver(1);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
}

TEST(QutsProtocolCheck, QutsSchedulerTwoCpusMatchesTable) {
  RealQutsDriver driver(2);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
}

// --- regression fixtures: the checker rejects the historical bugs -----------

TEST(QutsProtocolRegression, RejectsPreemptOntoEmptySide) {
  ModelQutsDriver driver(QutsBug::kPreemptOntoEmptySide);
  const auto violations = CheckQutsProtocol(driver);
  // Exactly the states the hotfix was about: boundary draw for the other,
  // empty side. Per running kind there are two occupancies that leave the
  // drawn side empty.
  EXPECT_EQ(violations.size(), 4u) << Report(violations);
  for (const QutsProtoViolation& v : violations) {
    EXPECT_EQ(v.event, QutsProtoEvent::kShouldPreempt);
    EXPECT_EQ(v.state.atom, QutsAtom::kExpired);
    EXPECT_NE(v.state.draw, RunningKindOf(v.state.running));
    EXPECT_FALSE(HasQueued(v.state.queues, v.state.draw));
    EXPECT_EQ(v.required, QutsAction::kKeepRunning);
    EXPECT_EQ(v.observed, QutsAction::kPreempt);
  }
}

TEST(QutsProtocolRegression, RejectsZeroDelayWakeup) {
  ModelQutsDriver driver(QutsBug::kZeroDelayWakeup);
  const auto violations = CheckQutsProtocol(driver);
  // Every expired-atom state with queued work answers "wake now" instead
  // of "wake a full atom out": 2 sides × 3 non-empty occupancies × 2 draws
  // × 2 valid CPU states.
  EXPECT_EQ(violations.size(), 24u) << Report(violations);
  for (const QutsProtoViolation& v : violations) {
    EXPECT_EQ(v.event, QutsProtoEvent::kNextDecisionTime);
    EXPECT_EQ(v.state.atom, QutsAtom::kExpired);
    EXPECT_NE(v.state.queues, QutsQueues::kBothEmpty);
    EXPECT_EQ(v.required, QutsAction::kWakeAfterFullAtom);
    EXPECT_EQ(v.observed, QutsAction::kWakeImmediate);
  }
}

// A deliberately wrong side-kept variant would also be caught: flipping any
// single required action makes the clean model fail. Spot-check by diffing
// the model against a table probe on one PopNext pair.
TEST(QutsProtocolCheck, TableAndModelAgreePointwise) {
  ModelQutsDriver driver(QutsBug::kNone);
  QutsProtoState state;
  state.side = TxnKind::kUpdate;
  state.atom = QutsAtom::kExpired;
  state.queues = QutsQueues::kUpdateOnly;
  state.draw = TxnKind::kQuery;  // drawn queue empty -> fall over to update
  state.running = QutsRunning::kIdle;
  driver.Arrange(state);
  EXPECT_EQ(driver.Fire(QutsProtoEvent::kPopNext), QutsAction::kPopUpdate);
  EXPECT_EQ(RequiredAction(state, QutsProtoEvent::kPopNext),
            QutsAction::kPopUpdate);
}

}  // namespace
}  // namespace webdb
