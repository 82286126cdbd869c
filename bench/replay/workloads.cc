#include "workloads.h"

#include "exp/overload_scenarios.h"
#include "trace/stock_trace_generator.h"

namespace replay_bench {

namespace {

constexpr const char* kPaper1Cpu = "paper-1cpu";
constexpr const char* kPaper4Cpu = "paper-4cpu";
constexpr const char* kMarketOpenShared = "market-open-shared";

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {kPaper1Cpu, kPaper4Cpu, kMarketOpenShared};
}

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload workload;
  workload.name = name;
  workload.spec.kind = webdb::SchedulerKind::kQuts;
  workload.qc = webdb::BalancedProfile(webdb::QcShape::kStep);
  if (name == kPaper1Cpu) return workload;
  if (name == kPaper4Cpu) {
    workload.spec.topology.num_cpus = 4;
    return workload;
  }
  if (name == kMarketOpenShared) {
    workload.spec.admission.kind = webdb::AdmissionKind::kDbf;
    workload.server.fusion.enabled = true;
    workload.server.fusion.result_cache = true;
    return workload;
  }
  return std::nullopt;
}

webdb::Trace MakeWorkloadTrace(const Workload& workload, uint64_t trace_seed) {
  if (workload.name == kMarketOpenShared) {
    // The paper's stock universe and window under a 10x opening-bell query
    // burst; base rates sit at the paper's query rate and a third of its
    // update rate, so half the transactions are queries.
    webdb::OverloadScenarioConfig config;
    config.seed = trace_seed;
    config.scale = 10.0;
    config.duration = webdb::Seconds(1800);
    config.num_stocks = 4608;
    config.query_rate = 35.0;
    config.update_rate = 100.0;
    return webdb::MakeOverloadTrace(webdb::OverloadScenario::kMarketOpen,
                                    config);
  }
  webdb::StockTraceConfig config;
  config.seed = trace_seed;
  return webdb::GenerateStockTrace(config);
}

}  // namespace replay_bench
