#include "qc/quality_contract.h"

#include <sstream>

#include "util/logging.h"

namespace webdb {

namespace {

// Profit of one dimension at metric value `x`.
double Profit(QcShape shape, double max, double cutoff, double x) {
  WEBDB_CHECK(x >= 0.0);
  if (!(x < cutoff)) return 0.0;
  return shape == QcShape::kStep ? max : max * (1.0 - x / cutoff);
}

void AppendDimension(std::ostringstream& out, QcShape shape, double max,
                     double cutoff) {
  if (max == 0.0 && cutoff == 0.0) {
    out << "zero";
    return;
  }
  out << ToString(shape) << "(max=$" << max << ", cutoff=" << cutoff << ")";
}

}  // namespace

std::string ToString(QcShape shape) {
  return shape == QcShape::kStep ? "step" : "linear";
}

std::string ToString(QcCombination combination) {
  return combination == QcCombination::kQosIndependent ? "qos-independent"
                                                       : "qos-dependent";
}

QualityContract QualityContract::Make(QcShape shape, double qos_max,
                                      SimDuration rt_max, double qod_max,
                                      double uu_max,
                                      QcCombination combination) {
  WEBDB_CHECK(rt_max > 0);
  WEBDB_CHECK(uu_max > 0);
  WEBDB_CHECK(qos_max >= 0.0);
  WEBDB_CHECK(qod_max >= 0.0);
  return QualityContract(shape, qos_max, ToMillis(rt_max), qod_max, uu_max,
                         combination);
}

double QualityContract::QosProfit(SimDuration response_time) const {
  WEBDB_CHECK(response_time >= 0);
  return Profit(shape_, qos_max_, rt_max_ms_, ToMillis(response_time));
}

double QualityContract::QodProfit(double staleness) const {
  return Profit(shape_, qod_max_, uu_max_, staleness);
}

QualityContract::Evaluation QualityContract::Evaluate(
    SimDuration response_time, double staleness) const {
  Evaluation eval;
  eval.qos = QosProfit(response_time);
  eval.qod = QodProfit(staleness);
  if (combination_ == QcCombination::kQosDependent && eval.qos <= 0.0) {
    eval.qod = 0.0;
  }
  return eval;
}

SimDuration QualityContract::rt_max() const {
  return static_cast<SimDuration>(rt_max_ms_ * 1000.0);
}

std::string QualityContract::DebugString() const {
  std::ostringstream out;
  out << "QC{qos=";
  AppendDimension(out, shape_, qos_max_, rt_max_ms_);
  out << ", qod=";
  AppendDimension(out, shape_, qod_max_, uu_max_);
  out << ", " << ToString(combination_) << "}";
  return out.str();
}

}  // namespace webdb
