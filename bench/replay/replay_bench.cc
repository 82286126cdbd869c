// Replay benchmark: host throughput of the simulated web-database when it
// replays a named workload's trace, with per-layer host costs measured from
// outside the library.
//
//   replay_bench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//                [--trace-seed <n>] [--qc-seed <n>] [--spans <path>]
//
// Every replay builds a fresh Simulator, Database and WebDatabaseServer,
// reserves capacity as RunExperiment does, feeds the trace and runs it dry
// on one host thread (the workloads' CPUs are simulated). Arrivals follow
// the trace's own open-loop schedule in simulated time, so on the host each
// replay is a batch and the speed metric is transactions per host-second.
//
// --trace 0 prints the end-to-end metrics: txn/s of the fastest warm replay
// in a --seconds window (the first replay warms the process and is not
// counted), set-up time, peak RSS, profit and committed-query share. The
// fastest replay, not the median, because other tenants of a shared host
// slow whole stretches of replays; README.md gives the measurements.
// --trace 1 alternates untraced and traced replays for --seconds and prints
// the per-layer metrics; span records go to --spans when given.
//
// The trace and QC seeds default to the paper run's (2007 and 7). --seed n
// derives the QC seed from n and keeps the workload's trace, whose sizes
// README.md states; --trace-seed / --qc-seed set either seed directly.
//
// Each replay is checked (drained and quiescent, queries and updates
// conserved, the same end-state hash on every replay, and the hash equal to
// RunExperiment's on the same inputs). The last stdout line is one JSON
// object; the exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "layer_probe.h"
#include "replay.h"
#include "util/seed.h"
#include "workloads.h"

namespace replay_bench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kMinReplays = 3;
constexpr int kMinTracedReplays = 2;
constexpr int kLockReplayRepeats = 3;

struct Flags {
  std::string workload;
  std::optional<uint64_t> seed;
  std::optional<uint64_t> trace_seed;
  std::optional<uint64_t> qc_seed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr, "replay_bench: %s\n", error);
  std::string names;
  for (const std::string& name : WorkloadNames()) names += " " + name;
  std::fprintf(stderr,
               "usage: replay_bench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1] [--trace-seed <n>] "
               "[--qc-seed <n>] [--spans <path>]\nworkloads:%s\n",
               names.c_str());
  std::exit(2);
}

uint64_t ParseU64(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') Usage("bad number");
  return value;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = ParseU64(value);
    } else if (arg == "--trace-seed") {
      flags.trace_seed = ParseU64(value);
    } else if (arg == "--qc-seed") {
      flags.qc_seed = ParseU64(value);
    } else if (arg == "--seconds") {
      char* end = nullptr;
      flags.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(flags.seconds > 0.0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (arg == "--trace") {
      const std::string mode = value;
      if (mode != "0" && mode != "1") Usage("--trace takes 0 or 1");
      flags.trace = mode == "1";
    } else if (arg == "--spans") {
      flags.spans = value;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (flags.workload.empty()) Usage("--workload is required");
  return flags;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Collects output-check failures; the run reports them all and exits 1.
class Checks {
 public:
  void Fail(const std::string& what) {
    std::fprintf(stderr, "replay_bench: CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  // Checks one replay against the first one seen.
  void Replay(const ReplayOutcome& out, const char* what) {
    if (!out.error.empty()) Fail(std::string(what) + ": " + out.error);
    if (!first_hash_.has_value()) {
      first_hash_ = out.end_state_hash;
      return;
    }
    if (out.end_state_hash != *first_hash_) {
      char text[160];
      std::snprintf(text, sizeof(text),
                    "%s: end-state hash %016" PRIx64 " != first replay's "
                    "%016" PRIx64,
                    what, out.end_state_hash, *first_hash_);
      Fail(text);
    }
  }
  bool ok() const { return ok_; }
  uint64_t hash() const { return first_hash_.value_or(0); }

 private:
  bool ok_ = true;
  std::optional<uint64_t> first_hash_;
};

void PrintOutcome(const std::string& workload, const ReplayOutcome& out,
                  uint64_t trace_seed, uint64_t qc_seed) {
  std::fprintf(
      stderr,
      "replay_bench: %s trace_seed=%" PRIu64 " qc_seed=%" PRIu64
      " queries=%" PRId64 " updates=%" PRId64 "\n"
      "  committed=%" PRId64 " dropped=%" PRId64 " rejected=%" PRId64
      " shed=%" PRId64 " fused=%" PRId64 " cache_hits=%" PRId64
      " applied=%" PRId64 " invalidated=%" PRId64 " restarts=%" PRId64
      " preemptions=%" PRId64 "\n  profit_pct=%.6f end_state_hash=%016" PRIx64
      " warm-up replay %.3f s\n",
      workload.c_str(), trace_seed, qc_seed, out.queries_submitted,
      out.updates_submitted, out.queries_committed, out.queries_dropped,
      out.queries_rejected, out.queries_shed, out.queries_fused,
      out.queries_cache_hits, out.updates_applied, out.updates_invalidated,
      out.query_restarts + out.update_restarts, out.preemptions,
      out.profit_pct, out.end_state_hash,
      static_cast<double>(out.wall_ns) / 1e9);
}

// Per-layer metrics of the traced replays (README.md says what each one
// should move). Counts are per replay and exact. Times are summed over every
// traced replay, each net of the timer cost calibrated just before it.
std::vector<Metric> LayerMetrics(const ReplayOutcome& out,
                                 const std::vector<LayerTrace>& traces,
                                 const LockReplayTimes& lock_times,
                                 double untraced_wall_ns,
                                 double traced_wall_ns) {
  const LayerTrace& first = traces.front();
  const double replays = static_cast<double>(traces.size());
  const double txns = static_cast<double>(out.Txns());
  const double queries = static_cast<double>(out.queries_submitted);

  // Call counts and net self time, summed over the traced replays.
  struct Cost {
    double calls = 0.0;
    double ns = 0.0;
    double NsPerCall() const { return Ratio(ns, calls); }
  };
  auto add = [](Cost& cost, const Probe& p, const TimerCalibration& timer) {
    const double calls = static_cast<double>(p.calls);
    cost.calls += calls;
    cost.ns += std::max(
        0.0, static_cast<double>(p.self_ns) - calls * timer.bias_ns);
  };
  std::array<Cost, kNumSchedEntries> sched{};
  Cost sched_total;
  Cost admit;
  Cost finished;
  Cost qc;
  uint64_t qc_allocs = 0;
  uint64_t replay_allocs = 0;
  double replay_ns = 0.0;
  std::vector<double> second_ms;
  std::vector<double> timer_wall_ns;
  std::vector<double> timer_bias_ns;
  for (const LayerTrace& t : traces) {
    uint64_t calls = t.admit.calls + t.finished.calls + t.qc.calls;
    for (int e = 0; e < kNumSchedEntries; ++e) {
      add(sched[e], t.sched[e], t.timer);
      add(sched_total, t.sched[e], t.timer);
      calls += t.sched[e].calls;
    }
    add(admit, t.admit, t.timer);
    add(finished, t.finished, t.timer);
    add(qc, t.qc, t.timer);
    qc_allocs += t.qc_allocs;
    replay_allocs += t.replay_allocs;
    replay_ns += static_cast<double>(t.replay_end_ns - t.replay_start_ns) -
                 static_cast<double>(calls) * t.timer.wall_ns;
    timer_wall_ns.push_back(t.timer.wall_ns);
    timer_bias_ns.push_back(t.timer.bias_ns);
    for (const SecondSpan& s : t.seconds) {
      const double span_calls =
          static_cast<double>(s.sched.calls + s.admission.calls + s.qc.calls);
      second_ms.push_back((static_cast<double>(s.end_ns - s.start_ns) -
                           span_calls * t.timer.wall_ns) /
                          1e6);
    }
  }
  const double layer_ns = sched_total.ns + admit.ns + finished.ns + qc.ns;
  const double all_txns = txns * replays;
  const double admit_calls = admit.calls / replays;
  const double rejected = static_cast<double>(out.queries_rejected);

  const LockSequence& locks = first.locks;
  const double lock_ops = static_cast<double>(locks.acquires + locks.releases);

  std::vector<Metric> m;
  m.push_back({"sim.events_per_txn",
               Ratio(static_cast<double>(first.sim_executed), txns),
               "events/txn"});
  m.push_back({"sim.cancels_per_txn",
               Ratio(static_cast<double>(first.sim_cancelled), txns),
               "cancels/txn"});
  m.push_back({"sim.callback_heap_spills",
               static_cast<double>(first.sim_callback_spills), "count"});
  m.push_back(
      {"sim.host_ms_per_sim_s.p50", Quantile(second_ms, 0.50), "ms/sim_s"});
  m.push_back(
      {"sim.host_ms_per_sim_s.p99", Quantile(second_ms, 0.99), "ms/sim_s"});
  m.push_back(
      {"sched.calls_per_txn", Ratio(sched_total.calls, all_txns), "calls/txn"});
  m.push_back(
      {"sched.self_ns_per_txn", Ratio(sched_total.ns, all_txns), "ns/txn"});
  m.push_back(
      {"sched.share_pct", 100.0 * Ratio(sched_total.ns, replay_ns), "%"});
  for (int e = 0; e < kNumSchedEntries; ++e) {
    const std::string prefix = std::string("sched.") + kSchedEntryNames[e];
    m.push_back({prefix + ".calls", sched[e].calls / replays, "count"});
    m.push_back({prefix + ".ns_per_call", sched[e].NsPerCall(), "ns/call"});
  }
  m.push_back({"sched.peak_queued_queries",
               static_cast<double>(first.peak_queued_queries), "count"});
  m.push_back({"sched.query_wait_ms.p50", Quantile(first.query_wait_ms, 0.50),
               "ms"});
  m.push_back({"sched.query_wait_ms.p99", Quantile(first.query_wait_ms, 0.99),
               "ms"});
  m.push_back({"admission.admit.calls", admit_calls, "count"});
  m.push_back({"admission.admit.ns_per_call", admit.NsPerCall(), "ns/call"});
  m.push_back(
      {"admission.finished.ns_per_call", finished.NsPerCall(), "ns/call"});
  m.push_back(
      {"admission.reject_pct", 100.0 * Ratio(rejected, admit_calls), "%"});
  m.push_back({"admission.shed_pct",
               100.0 * Ratio(static_cast<double>(out.queries_shed),
                             admit_calls - rejected),
               "%"});
  m.push_back({"qc.assign_ns_per_query", qc.NsPerCall(), "ns/query"});
  m.push_back({"qc.allocs_per_query",
               Ratio(static_cast<double>(qc_allocs), qc.calls),
               "allocs/query"});
  m.push_back({"txn.restarts_per_ktxn",
               1000.0 * Ratio(static_cast<double>(out.query_restarts +
                                                  out.update_restarts),
                              txns),
               "1/ktxn"});
  m.push_back({"txn.lock_ops_per_txn", Ratio(lock_ops, txns), "ops/txn"});
  m.push_back({"txn.lock_ns_per_op",
               Ratio(static_cast<double>(lock_times.lock_ns), lock_ops),
               "ns/op"});
  m.push_back({"db.invalidated_pct",
               100.0 * Ratio(static_cast<double>(out.updates_invalidated),
                             static_cast<double>(out.updates_submitted)),
               "%"});
  m.push_back({"db.register_ns_per_op",
               Ratio(static_cast<double>(lock_times.register_ns),
                     static_cast<double>(locks.register_ops.size())),
               "ns/op"});
  m.push_back({"server.self_ns_per_txn",
               Ratio(replay_ns - layer_ns, all_txns), "ns/txn"});
  m.push_back({"server.query_fail_pct", out.QueryFailPct(), "%"});
  m.push_back({"server.preemptions_per_ktxn",
               1000.0 * Ratio(static_cast<double>(out.preemptions), txns),
               "1/ktxn"});
  m.push_back({"fusion.fused_pct",
               100.0 * Ratio(static_cast<double>(out.queries_fused), queries),
               "%"});
  m.push_back(
      {"fusion.cache_hit_pct",
       100.0 * Ratio(static_cast<double>(out.queries_cache_hits), queries),
       "%"});
  m.push_back({"fusion.hits_per_fill",
               Ratio(static_cast<double>(out.queries_cache_hits),
                     static_cast<double>(out.cache_fills)),
               "hits/fill"});
  m.push_back({"run.allocs_per_txn",
               Ratio(static_cast<double>(replay_allocs), all_txns),
               "allocs/txn"});
  m.push_back({"trace.overhead_pct",
               100.0 * (Ratio(traced_wall_ns, untraced_wall_ns) - 1.0), "%"});
  m.push_back({"trace.timer_ns_per_call", Median(timer_wall_ns), "ns/call"});
  m.push_back({"trace.timer_bias_ns", Median(timer_bias_ns), "ns/call"});
  return m;
}

// Lock / register replay counts against the run's lifecycle counters.
void CheckLockSequence(const ReplayOutcome& out, const LockSequence& locks,
                       Checks* checks) {
  const int64_t releases =
      (out.queries_committed - out.queries_fused - out.queries_cache_hits) +
      out.updates_applied + out.query_restarts + out.update_restarts +
      (out.queries_dropped - locks.member_drops) + out.queries_shed +
      out.updates_invalidated;
  if (locks.releases != releases) {
    checks->Fail("lock replay: " + std::to_string(locks.releases) +
                 " releases, lifecycle counters give " +
                 std::to_string(releases));
  }
  int64_t registers = 0;
  int64_t removes = 0;
  for (const LockSequence::RegisterOp& op : locks.register_ops) {
    if (op.kind == LockSequence::RegisterKind::kRegister) {
      ++registers;
    } else {
      ++removes;
    }
  }
  if (registers != out.updates_submitted + out.update_restarts) {
    checks->Fail("register replay: registrations != submitted + restarts");
  }
  if (removes != locks.update_dispatches + out.updates_invalidated) {
    checks->Fail("register replay: removals != dispatches + invalidations");
  }
}

// One JSON line per span: the replay root, one per simulated second, and
// one aggregate child per wrapped layer under each second.
void WriteSpans(const std::string& path, const std::vector<LayerTrace>& traces,
                Checks* checks) {
  std::ofstream file(path);
  if (!file) {
    checks->Fail("cannot write spans to " + path);
    return;
  }
  int64_t next_id = 1;
  for (size_t r = 0; r < traces.size(); ++r) {
    const LayerTrace& t = traces[r];
    const int64_t root = next_id++;
    file << "{\"id\":" << root
         << ",\"parent\":0,\"name\":\"replay\",\"replay\":" << r
         << ",\"start_ns\":" << t.replay_start_ns
         << ",\"end_ns\":" << t.replay_end_ns << "}\n";
    for (const SecondSpan& s : t.seconds) {
      const int64_t id = next_id++;
      file << "{\"id\":" << id << ",\"parent\":" << root
           << ",\"name\":\"second\",\"sim_s\":" << s.sim_second
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << "}\n";
      const std::pair<const char*, const Probe*> children[] = {
          {"sched", &s.sched}, {"admission", &s.admission}, {"qc", &s.qc}};
      for (const auto& [name, probe] : children) {
        if (probe->calls == 0) continue;
        file << "{\"id\":" << next_id++ << ",\"parent\":" << id
             << ",\"name\":\"" << name << "\",\"calls\":" << probe->calls
             << ",\"self_ns\":" << probe->self_ns << "}\n";
      }
    }
  }
  if (!file) checks->Fail("error writing spans to " + path);
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (!FindWorkload(flags.workload).has_value()) Usage("unknown workload");

  uint64_t trace_seed = kPaperTraceSeed;
  uint64_t qc_seed = kPaperQcSeed;
  if (flags.seed.has_value()) {
    qc_seed = webdb::DeriveSeed(kPaperQcSeed, *flags.seed);
  }
  if (flags.trace_seed.has_value()) trace_seed = *flags.trace_seed;
  if (flags.qc_seed.has_value()) qc_seed = *flags.qc_seed;

  // Set-up: the workload's trace and settings, built several times; the
  // metric is the median.
  std::vector<double> setup_s;
  std::optional<Workload> workload;
  webdb::Trace trace;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = HostNowNs();
    workload = FindWorkload(flags.workload);
    trace = MakeWorkloadTrace(*workload, trace_seed);
    trace.CheckValid();
    setup_s.push_back(static_cast<double>(HostNowNs() - start) / 1e9);
  }
  const ReplayInputs inputs{&*workload, &trace, qc_seed};
  const int64_t txns =
      static_cast<int64_t>(trace.queries.size() + trace.updates.size());

  Checks checks;
  const ReplayOutcome warm = Replay(inputs, nullptr, false);
  checks.Replay(warm, "warm-up replay");
  PrintOutcome(workload->name, warm, trace_seed, qc_seed);

  const int64_t window_ns = static_cast<int64_t>(flags.seconds * 1e9);
  const int64_t window_start = HostNowNs();
  auto window_open = [&](size_t done, int min_done) {
    return done < static_cast<size_t>(min_done) ||
           HostNowNs() - window_start < window_ns;
  };

  std::vector<double> untraced_ns;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto count_replay = [&](const ReplayOutcome& out) {
    attempted += out.Txns();
    if (!out.error.empty()) failed += out.Txns();
  };

  if (!flags.trace) {
    while (window_open(untraced_ns.size(), kMinReplays)) {
      const ReplayOutcome out = Replay(inputs, nullptr, false);
      checks.Replay(out, "replay");
      count_replay(out);
      untraced_ns.push_back(static_cast<double>(out.wall_ns));
    }
    std::vector<double> rates;
    for (double ns : untraced_ns) rates.push_back(txns / (ns / 1e9));
    metrics = {
        {"txn_per_s", *std::max_element(rates.begin(), rates.end()),
         "txn/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"profit_pct", warm.profit_pct, "%"},
        {"query_commit_pct", 100.0 - warm.QueryFailPct(), "%"},
    };
    std::string listed;
    for (double rate : rates) {
      listed += ' ';
      listed += std::to_string(std::lround(rate));
    }
    std::fprintf(stderr, "replay_bench: %zu timed replays, txn/s:%s\n",
                 rates.size(), listed.c_str());
  } else {
    std::vector<double> traced_ns;
    std::vector<LayerTrace> traces;
    ReplayOutcome first_traced;
    while (window_open(traces.size(), kMinTracedReplays)) {
      const ReplayOutcome plain = Replay(inputs, nullptr, false);
      checks.Replay(plain, "untraced replay");
      count_replay(plain);
      untraced_ns.push_back(static_cast<double>(plain.wall_ns));

      LayerTrace& layers = traces.emplace_back();
      layers.timer = CalibrateTimer();
      const ReplayOutcome traced = Replay(inputs, &layers, traces.size() == 1);
      checks.Replay(traced, "traced replay");
      count_replay(traced);
      if (traces.size() == 1) first_traced = traced;
      traced_ns.push_back(static_cast<double>(traced.wall_ns));
    }
    CheckLockSequence(first_traced, traces.front().locks, &checks);
    std::vector<double> lock_ns;
    std::vector<double> register_ns;
    for (int i = 0; i < kLockReplayRepeats; ++i) {
      std::string error;
      const LockReplayTimes times =
          ReplayLockSequence(traces.front().locks, &error);
      if (!error.empty()) checks.Fail(error);
      lock_ns.push_back(static_cast<double>(times.lock_ns));
      register_ns.push_back(static_cast<double>(times.register_ns));
    }
    const LockReplayTimes lock_times{static_cast<int64_t>(Median(lock_ns)),
                                     static_cast<int64_t>(Median(register_ns))};
    metrics = LayerMetrics(first_traced, traces, lock_times,
                           Median(untraced_ns), Median(traced_ns));
    std::fprintf(stderr,
                 "replay_bench: %zu untraced + %zu traced replays, %zu "
                 "second spans per replay\n",
                 untraced_ns.size(), traces.size(),
                 traces.front().seconds.size());
    if (!flags.spans.empty()) WriteSpans(flags.spans, traces, &checks);
  }

  const uint64_t experiment_hash = RunExperimentHash(inputs);
  if (experiment_hash != checks.hash()) {
    char text[128];
    std::snprintf(text, sizeof(text),
                  "RunExperiment end-state hash %016" PRIx64
                  " != replay hash %016" PRIx64,
                  experiment_hash, checks.hash());
    checks.Fail(text);
  }

  PrintResult(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace replay_bench

int main(int argc, char** argv) { return replay_bench::Main(argc, argv); }
