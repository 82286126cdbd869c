// The replay benchmark's named workloads: a trace recipe plus the
// scheduler, server and Quality-Contract settings it is replayed under.
// BENCHMARK.json records why each one is in the benchmark.

#ifndef WEBDB_BENCH_REPLAY_WORKLOADS_H_
#define WEBDB_BENCH_REPLAY_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/scheduler_factory.h"
#include "qc/qc_generator.h"
#include "server/server_config.h"
#include "trace/trace.h"

namespace replay_bench {

// Seeds of the paper run: StockTraceConfig's and ExperimentOptions'
// defaults.
inline constexpr uint64_t kPaperTraceSeed = 2007;
inline constexpr uint64_t kPaperQcSeed = 7;

struct Workload {
  std::string name;
  webdb::SchedulerSpec spec;
  // Admission comes from `spec`; tracer is set per replay.
  webdb::ServerConfig server;
  webdb::QcProfile qc;
};

std::vector<std::string> WorkloadNames();
std::optional<Workload> FindWorkload(const std::string& name);

// Generates `workload`'s trace from `trace_seed`.
webdb::Trace MakeWorkloadTrace(const Workload& workload, uint64_t trace_seed);

}  // namespace replay_bench

#endif  // WEBDB_BENCH_REPLAY_WORKLOADS_H_
