// Host-time probes the replay benchmark puts around the library's layers
// from outside: a self-time clock that handles nested calls, and forwarding
// CpuSetScheduler / AdmissionController wrappers that time the
// dispatch-path calls and forward everything else untimed.
//
// The wrappers are transparent: the server never downcasts its scheduler or
// admission controller, so a replay through them takes the same schedule as
// one without them (the benchmark checks the end-state hashes agree).

#ifndef WEBDB_BENCH_REPLAY_LAYER_PROBE_H_
#define WEBDB_BENCH_REPLAY_LAYER_PROBE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/admission.h"
#include "sched/cpu_set_scheduler.h"

namespace replay_bench {

// Host time in nanoseconds. The benchmark measures host time; it never feeds
// simulation state.
inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now()  // lint:allow(wall-clock)
                 .time_since_epoch())
      .count();
}

// Call count and self time (time not spent in nested timed calls) of one
// probed entry point.
struct Probe {
  uint64_t calls = 0;
  int64_t self_ns = 0;

  Probe& operator+=(const Probe& other) {
    calls += other.calls;
    self_ns += other.self_ns;
    return *this;
  }
};

// Times nested calls: a call's elapsed time is charged to its own probe
// minus whatever nested timed calls took, and the whole elapsed time is
// charged to the enclosing call's children. DbfAdmission::Admit, for
// example, sheds through the server, which calls back into the scheduler
// and the admission controller.
class SelfTimer {
 public:
  SelfTimer() { stack_.reserve(16); }

  void Enter() { stack_.push_back(Frame{HostNowNs(), 0}); }

  void Exit(Probe& probe) {
    const int64_t end = HostNowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t elapsed = end - frame.start;
    probe.self_ns += elapsed - frame.child_ns;
    ++probe.calls;
    if (!stack_.empty()) stack_.back().child_ns += elapsed;
  }

 private:
  struct Frame {
    int64_t start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
};

class TimedCall {
 public:
  TimedCall(SelfTimer* timer, Probe* probe) : timer_(timer), probe_(probe) {
    timer_->Enter();
  }
  ~TimedCall() { timer_->Exit(*probe_); }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  SelfTimer* timer_;
  Probe* probe_;
};

// Cost of one empty timed call: `wall_ns` is the host time it adds to a run,
// `bias_ns` the self time it reports. The host's speed drifts, so a traced
// run calibrates again before every traced replay.
struct TimerCalibration {
  double wall_ns = 0.0;
  double bias_ns = 0.0;
};

// Medians over a few batches of empty timed calls.
inline TimerCalibration CalibrateTimer() {
  constexpr int kBatches = 5;
  constexpr int kCalls = 100000;
  std::array<double, kBatches> walls{};
  std::array<double, kBatches> biases{};
  for (int batch = 0; batch < kBatches; ++batch) {
    SelfTimer timer;
    Probe probe;
    const int64_t start = HostNowNs();
    for (int i = 0; i < kCalls; ++i) {
      TimedCall timed(&timer, &probe);
    }
    walls[batch] = static_cast<double>(HostNowNs() - start) / kCalls;
    biases[batch] = static_cast<double>(probe.self_ns) / kCalls;
  }
  std::sort(walls.begin(), walls.end());
  std::sort(biases.begin(), biases.end());
  return TimerCalibration{walls[kBatches / 2], biases[kBatches / 2]};
}

// The scheduler's dispatch-path entry points, in metric order.
enum SchedEntry : int {
  kPopNext,
  kShouldPreempt,
  kNextDecisionTime,
  kQueryArrival,
  kUpdateArrival,
  kRequeue,
  kRemoveQueued,
  kTxnFinished,
  kNumSchedEntries,
};

inline constexpr std::array<const char*, kNumSchedEntries> kSchedEntryNames = {
    "pop_next",      "should_preempt", "next_decision_time",
    "query_arrival", "update_arrival", "requeue",
    "remove_queued", "txn_finished"};

using SchedProbes = std::array<Probe, kNumSchedEntries>;

class TimedScheduler final : public webdb::CpuSetScheduler {
 public:
  // `inner` and `timer` must outlive the wrapper.
  TimedScheduler(webdb::CpuSetScheduler* inner, SelfTimer* timer)
      : inner_(inner), timer_(timer) {}

  const SchedProbes& probes() const { return probes_; }

  std::string Name() const override { return inner_->Name(); }
  int num_cpus() const override { return inner_->num_cpus(); }

  void OnQueryArrival(webdb::Query* query, webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kQueryArrival]);
    inner_->OnQueryArrival(query, now);
  }
  void OnUpdateArrival(webdb::Update* update, webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kUpdateArrival]);
    inner_->OnUpdateArrival(update, now);
  }
  void Requeue(webdb::Transaction* txn, webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kRequeue]);
    inner_->Requeue(txn, now);
  }
  webdb::Transaction* PopNext(webdb::CpuId cpu, webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kPopNext]);
    return inner_->PopNext(cpu, now);
  }
  bool ShouldPreempt(webdb::CpuId cpu, const webdb::Transaction& running,
                     webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kShouldPreempt]);
    return inner_->ShouldPreempt(cpu, running, now);
  }
  webdb::SimTime NextDecisionTime(webdb::CpuId cpu,
                                  webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kNextDecisionTime]);
    return inner_->NextDecisionTime(cpu, now);
  }
  void OnTxnFinished(const webdb::Transaction& txn,
                     webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kTxnFinished]);
    inner_->OnTxnFinished(txn, now);
  }
  void RemoveQueued(webdb::Transaction* txn, webdb::SimTime now) override {
    TimedCall timed(timer_, &probes_[kRemoveQueued]);
    inner_->RemoveQueued(txn, now);
  }

  // Off the dispatch path: forwarded untimed.
  int FusionDomain(const webdb::Query& query) const override {
    return inner_->FusionDomain(query);
  }
  int RendezvousDomain(const webdb::Query& query) override {
    return inner_->RendezvousDomain(query);
  }
  bool HasWork() const override { return inner_->HasWork(); }
  int64_t NumQueuedQueries() const override {
    return inner_->NumQueuedQueries();
  }
  int64_t NumQueuedUpdates() const override {
    return inner_->NumQueuedUpdates();
  }
  void ExportStats(webdb::MetricRegistry& registry) const override {
    inner_->ExportStats(registry);
  }

 private:
  webdb::CpuSetScheduler* inner_;
  SelfTimer* timer_;
  SchedProbes probes_;
};

class TimedAdmission final : public webdb::AdmissionController {
 public:
  // `inner` and `timer` must outlive the wrapper.
  TimedAdmission(webdb::AdmissionController* inner, SelfTimer* timer)
      : inner_(inner), timer_(timer) {}

  const Probe& admit() const { return admit_; }
  const Probe& finished() const { return finished_; }

  std::string Name() const override { return inner_->Name(); }

  bool Admit(const webdb::Query& query,
             const webdb::AdmissionContext& context) override {
    TimedCall timed(timer_, &admit_);
    return inner_->Admit(query, context);
  }
  void OnQueryFinished(const webdb::Query& query,
                       webdb::SimTime now) override {
    TimedCall timed(timer_, &finished_);
    inner_->OnQueryFinished(query, now);
  }
  void AuditInvariants(webdb::SimTime now) const override {
    inner_->AuditInvariants(now);
  }

 private:
  webdb::AdmissionController* inner_;
  SelfTimer* timer_;
  Probe admit_;
  Probe finished_;
};

}  // namespace replay_bench

#endif  // WEBDB_BENCH_REPLAY_LAYER_PROBE_H_
