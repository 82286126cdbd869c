// Quality Contracts (Section 2.2 of the paper).
//
// A QC attaches two non-increasing profit functions of one shape to a query:
// one over response time (QoS) and one over staleness (QoD). Each is fixed by
// a maximum profit and a cutoff, so a contract is four numbers (qos_max,
// rt_max, qod_max, uu_max) plus its shape and combination mode (Figures 2
// and 3). Evaluating the contract at commit time yields the profit the
// server earns from that query.
//
// Shapes, for metric value x >= 0 (response time in milliseconds for QoS,
// staleness for QoD):
//  - step:   profit(x) = max                    for x < cutoff, else 0;
//  - linear: profit(x) = max * (1 - x / cutoff) for x < cutoff, else 0.
// Profit is earned strictly below the cutoff. On the staleness axis this
// matches the paper's reading of uu_max = 1 as "QoD profit is gained only
// when no update is missed". A dimension with max == cutoff == 0 states no
// preference and earns nothing.
//
// Two combination modes are supported:
//  - QoS-Independent (paper default): QoD profit is earned regardless of the
//    QoS outcome, as long as the query commits before its lifetime deadline
//    (the deadline itself is enforced by the server, not the contract).
//  - QoS-Dependent: QoD profit is earned only when the QoS profit is > 0.

#ifndef WEBDB_QC_QUALITY_CONTRACT_H_
#define WEBDB_QC_QUALITY_CONTRACT_H_

#include <string>

#include "util/time.h"

namespace webdb {

enum class QcShape { kStep, kLinear };
enum class QcCombination { kQosIndependent, kQosDependent };

std::string ToString(QcShape shape);
std::string ToString(QcCombination combination);

// A plain, trivially copyable value.
class QualityContract {
 public:
  struct Evaluation {
    double qos = 0.0;
    double qod = 0.0;
    double Total() const { return qos + qod; }
  };

  // Zero contract: no profit on either dimension.
  QualityContract() = default;

  // Four-parameter contracts of the paper (Figures 2 and 3). Requires
  // non-negative maxima and positive cutoffs.
  static QualityContract Make(QcShape shape, double qos_max,
                              SimDuration rt_max, double qod_max,
                              double uu_max,
                              QcCombination combination =
                                  QcCombination::kQosIndependent);

  // QoS profit for the given response time.
  double QosProfit(SimDuration response_time) const;
  // QoD profit for the given staleness (ignores the combination mode).
  double QodProfit(double staleness) const;

  // Combined evaluation honoring the combination mode.
  Evaluation Evaluate(SimDuration response_time, double staleness) const;

  double qos_max() const { return qos_max_; }
  double qod_max() const { return qod_max_; }
  double total_max() const { return qos_max() + qod_max(); }

  // Relative QC deadline: response time at/after which QoS profit is zero.
  SimDuration rt_max() const;
  // Staleness at/after which QoD profit is zero.
  double uu_max() const { return uu_max_; }

  QcCombination combination() const { return combination_; }

  std::string DebugString() const;

 private:
  // ParseQcSpec sets the response-time cutoff in (possibly fractional)
  // milliseconds and may leave a dimension at zero.
  friend bool ParseQcSpec(const std::string& spec, QualityContract* qc,
                          std::string* error);

  QualityContract(QcShape shape, double qos_max, double rt_max_ms,
                  double qod_max, double uu_max, QcCombination combination)
      : qos_max_(qos_max),
        rt_max_ms_(rt_max_ms),
        qod_max_(qod_max),
        uu_max_(uu_max),
        shape_(shape),
        combination_(combination) {}

  // The doubles come first so the two enums share the last eight bytes.
  double qos_max_ = 0.0;
  double rt_max_ms_ = 0.0;
  double qod_max_ = 0.0;
  double uu_max_ = 0.0;
  QcShape shape_ = QcShape::kStep;
  QcCombination combination_ = QcCombination::kQosIndependent;
};

}  // namespace webdb

#endif  // WEBDB_QC_QUALITY_CONTRACT_H_
