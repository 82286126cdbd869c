#include "qc/quality_contract.h"

#include <cstdint>
#include <tuple>
#include <type_traits>

#include <gtest/gtest.h>

#include "qc/qc_spec.h"

namespace webdb {
namespace {

// A contract is a plain value: no larger than the two shared pointers plus
// combination enum it replaced, and copied with memcpy.
static_assert(std::is_trivially_copyable_v<QualityContract>);
static_assert(sizeof(QualityContract) <= 40);

TEST(QualityContractTest, DefaultIsZeroContract) {
  QualityContract qc;
  EXPECT_DOUBLE_EQ(qc.qos_max(), 0.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 0.0);
  EXPECT_DOUBLE_EQ(qc.total_max(), 0.0);
  EXPECT_EQ(qc.rt_max(), 0);
  EXPECT_DOUBLE_EQ(qc.uu_max(), 0.0);
  const auto eval = qc.Evaluate(Millis(1), 0.0);
  EXPECT_DOUBLE_EQ(eval.Total(), 0.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(0), 0.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Seconds(1000)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1e9), 0.0);
}

TEST(QualityContractTest, StepProfitStrictlyBelowCutoff) {
  const auto qc =
      QualityContract::Make(QcShape::kStep, 10.0, Millis(50), 4.0, 3.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(0), 10.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Micros(49999)), 10.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);  // cutoff is exclusive
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(100)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(2.999), 4.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(3.0), 0.0);
}

TEST(QualityContractTest, UuMaxOneMeansNoUpdateMissed) {
  // The paper's uu_max = 1 semantics: QoD profit only when #uu == 0.
  const auto qc =
      QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0, 1.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(0.0), 2.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1.0), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(2.0), 0.0);
}

TEST(QualityContractTest, LinearInterpolatesToZeroAtCutoff) {
  const auto qc =
      QualityContract::Make(QcShape::kLinear, 10.0, Millis(50), 6.0, 4.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(0), 10.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(25)), 5.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(60)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(2.0), 3.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(4.0), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(5.0), 0.0);
}

TEST(QualityContractTest, ZeroMaxProfitIsAlwaysZero) {
  for (const QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    const auto qc = QualityContract::Make(shape, 0.0, Millis(50), 0.0, 1.0);
    EXPECT_DOUBLE_EQ(qc.QosProfit(0), 0.0);
    EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(10)), 0.0);
    EXPECT_DOUBLE_EQ(qc.QodProfit(0.0), 0.0);
    EXPECT_DOUBLE_EQ(qc.QodProfit(0.5), 0.0);
    EXPECT_EQ(qc.rt_max(), Millis(50));  // the cutoffs are kept
    EXPECT_DOUBLE_EQ(qc.uu_max(), 1.0);
  }
}

TEST(QualityContractDeathTest, MakeRejectsInvalidParams) {
  EXPECT_DEATH(QualityContract::Make(QcShape::kStep, -1.0, Millis(50), 1.0,
                                     1.0),
               "");
  EXPECT_DEATH(QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), -1.0,
                                     1.0),
               "");
  EXPECT_DEATH(QualityContract::Make(QcShape::kStep, 1.0, 0, 1.0, 1.0), "");
  EXPECT_DEATH(QualityContract::Make(QcShape::kStep, 1.0, Millis(-5), 1.0,
                                     1.0),
               "");
  EXPECT_DEATH(QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), 1.0,
                                     0.0),
               "");
  EXPECT_DEATH(QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), 1.0,
                                     -5.0),
               "");
}

TEST(QualityContractDeathTest, NegativeMetricAborts) {
  const auto qc =
      QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), 1.0, 1.0);
  EXPECT_DEATH(qc.QosProfit(-1), "");
  EXPECT_DEATH(qc.QodProfit(-0.5), "");
  EXPECT_DEATH(qc.Evaluate(Millis(10), -1.0), "");
}

TEST(QualityContractTest, NoPreferenceDimensionIsAlwaysZero) {
  // An omitted dimension (max == cutoff == 0) earns nothing at any value,
  // and under QoS-dependent combination a contract without a QoS preference
  // never earns its QoD profit.
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("step qod=2@1", &qc));
  EXPECT_EQ(qc.qos_max(), 0.0);
  EXPECT_EQ(qc.rt_max(), 0);
  EXPECT_EQ(qc.QosProfit(0), 0.0);
  EXPECT_EQ(qc.QosProfit(Seconds(1000)), 0.0);
  EXPECT_EQ(qc.Evaluate(Millis(1), 0.0).Total(), 2.0);

  ASSERT_TRUE(ParseQcSpec("linear qos=3@20ms mode=dependent", &qc));
  EXPECT_EQ(qc.qod_max(), 0.0);
  EXPECT_EQ(qc.uu_max(), 0.0);
  EXPECT_EQ(qc.QodProfit(0.0), 0.0);
  EXPECT_EQ(qc.QodProfit(1e9), 0.0);
  EXPECT_EQ(qc.Evaluate(Millis(10), 0.0).Total(), 1.5);

  ASSERT_TRUE(ParseQcSpec("step qod=2@1 mode=dependent", &qc));
  EXPECT_EQ(qc.Evaluate(0, 0.0).Total(), 0.0);
}

TEST(QualityContractTest, StepContractFigure2) {
  // Figure 2: qos_max=$1, rt_max=50ms, qod_max=$2, uu_max=1.
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0);
  EXPECT_DOUBLE_EQ(qc.qos_max(), 1.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 2.0);
  EXPECT_EQ(qc.rt_max(), Millis(50));
  EXPECT_DOUBLE_EQ(qc.uu_max(), 1.0);

  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(20)), 1.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(0.0), 2.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1.0), 0.0);
}

TEST(QualityContractTest, LinearContractFigure3) {
  // Figure 3: qos_max=$2, rt_max=50ms, qod_max=$1, uu_max=2.
  const auto qc = QualityContract::Make(QcShape::kLinear, 2.0, Millis(50),
                                        1.0, 2.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(0), 2.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(25)), 1.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1.0), 0.5);
  EXPECT_DOUBLE_EQ(qc.QodProfit(2.0), 0.0);
}

// Pins the exact doubles the step and linear formulas produce (EXPECT_EQ,
// not DOUBLE_EQ): at 0, just below the cutoff, at it and past it, plus a
// contract whose rt_max is not a whole number of milliseconds. Any change to
// the arithmetic, however small, moves a golden CSV or an end-state hash.
TEST(QualityContractTest, ProfitsAreBitExact) {
  const auto step =
      QualityContract::Make(QcShape::kStep, 1.5, Millis(50), 2.5, 1.0);
  EXPECT_EQ(step.rt_max(), 50000);
  EXPECT_EQ(step.QosProfit(0), 1.5);
  EXPECT_EQ(step.QosProfit(Micros(49999)), 1.5);
  EXPECT_EQ(step.QosProfit(Millis(50)), 0.0);
  EXPECT_EQ(step.QosProfit(Millis(51)), 0.0);
  EXPECT_EQ(step.QodProfit(0.0), 2.5);
  EXPECT_EQ(step.QodProfit(0.999), 2.5);
  EXPECT_EQ(step.QodProfit(1.0), 0.0);
  EXPECT_EQ(step.QodProfit(1.5), 0.0);

  const auto linear =
      QualityContract::Make(QcShape::kLinear, 3.0, Millis(70), 2.0, 3.0);
  EXPECT_EQ(linear.rt_max(), 70000);
  EXPECT_EQ(linear.QosProfit(0), 3.0);
  EXPECT_EQ(linear.QosProfit(Micros(12345)), 0x1.3c47632e84d3dp+1);
  EXPECT_EQ(linear.QosProfit(Micros(69999)), 0x1.67830373dp-15);
  EXPECT_EQ(linear.QosProfit(Millis(70)), 0.0);
  EXPECT_EQ(linear.QosProfit(Millis(71)), 0.0);
  EXPECT_EQ(linear.QodProfit(0.0), 2.0);
  EXPECT_EQ(linear.QodProfit(1.0), 0x1.5555555555556p+0);
  EXPECT_EQ(linear.QodProfit(2.9), 0x1.111111111111p-4);
  EXPECT_EQ(linear.QodProfit(3.0), 0.0);
  EXPECT_EQ(linear.QodProfit(4.0), 0.0);

  QualityContract parsed;
  ASSERT_TRUE(ParseQcSpec("linear qos=2@0.0505s qod=1@2", &parsed));
  EXPECT_EQ(parsed.rt_max(), 50500);  // 50.5 ms
  EXPECT_EQ(parsed.QosProfit(0), 2.0);
  EXPECT_EQ(parsed.QosProfit(Micros(25000)), 0x1.0288df0cac5b4p+0);
  EXPECT_EQ(parsed.QosProfit(Micros(50499)), 0x1.4c38db7b1p-15);
  EXPECT_EQ(parsed.QosProfit(Micros(50500)), 0.0);
  EXPECT_EQ(parsed.QosProfit(Micros(50501)), 0.0);
  EXPECT_EQ(parsed.QodProfit(1.0), 0.5);
  EXPECT_EQ(parsed.QodProfit(2.0), 0.0);
}

TEST(QualityContractTest, QosIndependentEarnsQodAfterDeadline) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0, QcCombination::kQosIndependent);
  const auto eval = qc.Evaluate(Millis(200), 0.0);  // late but fresh
  EXPECT_DOUBLE_EQ(eval.qos, 0.0);
  EXPECT_DOUBLE_EQ(eval.qod, 2.0);
  EXPECT_DOUBLE_EQ(eval.Total(), 2.0);
}

TEST(QualityContractTest, QosDependentForfeitsQodAfterDeadline) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0, QcCombination::kQosDependent);
  const auto late = qc.Evaluate(Millis(200), 0.0);
  EXPECT_DOUBLE_EQ(late.qod, 0.0);
  EXPECT_DOUBLE_EQ(late.Total(), 0.0);
  const auto in_time = qc.Evaluate(Millis(20), 0.0);
  EXPECT_DOUBLE_EQ(in_time.Total(), 3.0);
}

TEST(QualityContractTest, QosDependentForfeitsQodAtTheCutoff) {
  // A linear QoS profit reaches zero at rt_max, so a QoS-dependent contract
  // keeps its QoD profit one microsecond before the cutoff and loses it there.
  const auto qc = QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), 2.0,
                                        2.0, QcCombination::kQosDependent);
  const auto before = qc.Evaluate(Micros(49999), 1.0);
  EXPECT_GT(before.qos, 0.0);
  EXPECT_DOUBLE_EQ(before.qod, 1.0);
  const auto at = qc.Evaluate(Millis(50), 1.0);
  EXPECT_EQ(at.qos, 0.0);
  EXPECT_EQ(at.qod, 0.0);
}

TEST(QualityContractTest, StaleQueryEarnsOnlyQos) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0);
  const auto eval = qc.Evaluate(Millis(10), 3.0);
  EXPECT_DOUBLE_EQ(eval.qos, 1.0);
  EXPECT_DOUBLE_EQ(eval.qod, 0.0);
}

TEST(QualityContractTest, CopyIsAnEqualValue) {
  const auto a =
      QualityContract::Make(QcShape::kStep, 5.0, Millis(80), 7.0, 1.0);
  const QualityContract b = a;
  EXPECT_EQ(b.qos_max(), 5.0);
  EXPECT_EQ(b.qod_max(), 7.0);
  EXPECT_EQ(b.rt_max(), Millis(80));
  EXPECT_EQ(b.uu_max(), 1.0);
  EXPECT_EQ(b.combination(), a.combination());
  EXPECT_EQ(b.DebugString(), a.DebugString());  // the shape, too
  EXPECT_EQ(b.QosProfit(Millis(40)), a.QosProfit(Millis(40)));
}

TEST(QualityContractTest, DebugStringMentionsShapeAndMode) {
  // Both dimensions with their parameters; "zero" for no preference.
  EXPECT_EQ(
      QualityContract::Make(QcShape::kStep, 3.0, Millis(7), 2.5, 1.0)
          .DebugString(),
      "QC{qos=step(max=$3, cutoff=7), qod=step(max=$2.5, cutoff=1), "
      "qos-independent}");
  EXPECT_EQ(QualityContract::Make(QcShape::kLinear, 3.0, Millis(7), 0.0, 2.0,
                                  QcCombination::kQosDependent)
                .DebugString(),
            "QC{qos=linear(max=$3, cutoff=7), qod=linear(max=$0, cutoff=2), "
            "qos-dependent}");
  EXPECT_EQ(QualityContract().DebugString(),
            "QC{qos=zero, qod=zero, qos-independent}");
  QualityContract parsed;
  ASSERT_TRUE(ParseQcSpec("linear qos=$1@50.5ms", &parsed));
  EXPECT_EQ(parsed.DebugString(),
            "QC{qos=linear(max=$1, cutoff=50.5), qod=zero, qos-independent}");
}

TEST(QualityContractTest, ToStringHelpers) {
  EXPECT_EQ(ToString(QcShape::kStep), "step");
  EXPECT_EQ(ToString(QcShape::kLinear), "linear");
  EXPECT_EQ(ToString(QcCombination::kQosDependent), "qos-dependent");
}

// For a whole number of milliseconds, rt_max() is the cutoff exactly: the
// deadline the schedulers read is where QoS profit ends, for both shapes.
TEST(QualityContractTest, WholeMillisecondCutoffsRoundTrip) {
  for (const QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    for (int64_t ms = 1; ms <= 100000; ++ms) {
      const auto qc = QualityContract::Make(shape, 1.0, Millis(ms), 1.0, 1.0);
      ASSERT_EQ(qc.rt_max(), Millis(ms)) << ToString(shape) << " " << ms;
      ASSERT_GT(qc.QosProfit(qc.rt_max() - 1), 0.0) << ms;
      ASSERT_EQ(qc.QosProfit(qc.rt_max()), 0.0) << ms;
    }
  }
}

// Property: both shapes are non-increasing on both dimensions, over a wide
// grid, for a sweep of (max profit, cutoff) pairs.
class NonIncreasingTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(NonIncreasingTest, StepAndLinear) {
  const auto [max_profit, cutoff] = GetParam();
  const SimDuration rt_max = static_cast<SimDuration>(cutoff * 1000.0);
  constexpr int kSamples = 1000;
  for (const QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    const auto qc =
        QualityContract::Make(shape, max_profit, rt_max, max_profit, cutoff);
    double prev_qos = qc.QosProfit(0);
    double prev_qod = qc.QodProfit(0.0);
    EXPECT_EQ(prev_qos, max_profit);
    EXPECT_EQ(prev_qod, max_profit);
    for (int i = 1; i <= kSamples; ++i) {
      const double qos = qc.QosProfit(rt_max * 3 * i / kSamples);
      const double qod = qc.QodProfit(cutoff * 3.0 * i / kSamples);
      EXPECT_LE(qos, prev_qos) << ToString(shape) << " sample " << i;
      EXPECT_LE(qod, prev_qod) << ToString(shape) << " sample " << i;
      prev_qos = qos;
      prev_qod = qod;
    }
    EXPECT_EQ(prev_qos, 0.0);
    EXPECT_EQ(prev_qod, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NonIncreasingTest,
    ::testing::Combine(::testing::Values(0.0, 1.0, 10.0, 99.0),
                       ::testing::Values(0.5, 1.0, 50.0, 100.0)));

// Property: evaluation never exceeds the contract maxima and is monotone in
// response time and staleness.
class ContractBoundsTest : public ::testing::TestWithParam<QcShape> {};

TEST_P(ContractBoundsTest, BoundedAndMonotone) {
  const auto qc =
      QualityContract::Make(GetParam(), 13.0, Millis(60), 17.0, 3.0);
  double prev_qos = 1e18;
  for (SimDuration rt = 0; rt <= Millis(120); rt += Millis(5)) {
    const double qos = qc.QosProfit(rt);
    EXPECT_GE(qos, 0.0);
    EXPECT_LE(qos, qc.qos_max());
    EXPECT_LE(qos, prev_qos);
    prev_qos = qos;
  }
  double prev_qod = 1e18;
  for (double uu = 0.0; uu <= 6.0; uu += 0.25) {
    const double qod = qc.QodProfit(uu);
    EXPECT_GE(qod, 0.0);
    EXPECT_LE(qod, qc.qod_max());
    EXPECT_LE(qod, prev_qod);
    prev_qod = qod;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ContractBoundsTest,
                         ::testing::Values(QcShape::kStep, QcShape::kLinear));

}  // namespace
}  // namespace webdb
