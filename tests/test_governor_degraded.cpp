/**
 * @file
 * Tests for the DegradedModeGovernor safety shell: transparent
 * delegation while healthy, the hold/step-down safe policy while
 * degraded (boost clamping, cap guard band, floor at the slowest
 * state), and the telemetry surface (NaN prediction, no exploration).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/governor/degraded_mode.hpp"
#include "ppep/sim/chip.hpp"

namespace {

using namespace ppep;
using governor::DegradedModeGovernor;

/** Scripted inner policy that records what reaches it. */
class MockGovernor : public governor::Governor
{
  public:
    std::vector<std::size_t> next_decision;
    sim::VfState nb_state{};
    double predicted_w = 77.0;
    std::vector<model::VfPrediction> exploration{1};
    std::size_t decide_calls = 0;

    std::vector<std::size_t>
    decide(const trace::IntervalRecord &, double) override
    {
        ++decide_calls;
        return next_decision;
    }

    std::optional<sim::VfState> decideNb() override { return nb_state; }

    std::string name() const override { return "mock"; }

    const std::vector<model::VfPrediction> *
    lastExploration() const override
    {
        return &exploration;
    }

    double lastPredictedPower() const override { return predicted_w; }
};

struct Fixture
{
    sim::ChipConfig cfg = sim::fx8320Config();
    sim::Chip chip{cfg, 1};
    MockGovernor inner;
    DegradedModeGovernor gov{chip, inner};

    /** An interval record at a uniform VF with a given power. */
    trace::IntervalRecord
    record(std::size_t vf, double power_w) const
    {
        trace::IntervalRecord rec;
        rec.cu_vf.assign(cfg.n_cus, vf);
        rec.sensor_power_w = power_w;
        return rec;
    }
};

TEST(DegradedMode, HealthyDelegatesEverything)
{
    Fixture fx;
    fx.inner.next_decision.assign(fx.cfg.n_cus, 2);
    auto &gov = fx.gov;

    const auto vf = gov.decide(fx.record(3, 50.0), 95.0);
    EXPECT_EQ(vf, fx.inner.next_decision);
    EXPECT_EQ(fx.inner.decide_calls, 1u);
    EXPECT_FALSE(gov.degradedNow());
    EXPECT_EQ(gov.degradedIntervals(), 0u);
    // Telemetry passes straight through.
    EXPECT_DOUBLE_EQ(gov.lastPredictedPower(), 77.0);
    EXPECT_EQ(gov.lastExploration(), &fx.inner.exploration);
    ASSERT_TRUE(gov.decideNb().has_value());
}

TEST(DegradedMode, DegradedHoldsTheCurrentOperatingPoint)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);

    // Power comfortably under the cap: hold, don't consult the inner
    // policy at all.
    const auto vf = gov.decide(fx.record(3, 50.0), 95.0);
    EXPECT_EQ(vf, std::vector<std::size_t>(fx.cfg.n_cus, 3));
    EXPECT_EQ(fx.inner.decide_calls, 0u);
    EXPECT_TRUE(gov.degradedNow());
    EXPECT_EQ(gov.degradedIntervals(), 1u);
}

TEST(DegradedMode, DegradedStepsDownInsideTheGuardBand)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);

    // kCapGuard = 0.1: 90 W cap means stepping starts above 81 W.
    static_assert(DegradedModeGovernor::kCapGuard == 0.1);
    const auto vf = gov.decide(fx.record(3, 85.0), 90.0);
    EXPECT_EQ(vf, std::vector<std::size_t>(fx.cfg.n_cus, 2));
}

TEST(DegradedMode, DegradedFloorsAtTheSlowestState)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);

    const auto vf = gov.decide(fx.record(0, 200.0), 90.0);
    EXPECT_EQ(vf, std::vector<std::size_t>(fx.cfg.n_cus, 0));
}

TEST(DegradedMode, DegradedClampsBoostRequestsToTheTable)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);

    // The interval ran at a boost index (>= vf_table.size()); holding
    // it would keep an untrustworthy system in boost. The safe policy
    // clamps to the top software P-state.
    const std::size_t boost = fx.cfg.vf_table.size();
    const std::size_t top = fx.cfg.vf_table.size() - 1;
    const auto vf = gov.decide(fx.record(boost, 50.0), 95.0);
    EXPECT_EQ(vf, std::vector<std::size_t>(fx.cfg.n_cus, top));
}

TEST(DegradedMode, DegradedSuppressesPredictionAndExploration)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);
    gov.decide(fx.record(3, 50.0), 95.0);

    EXPECT_TRUE(std::isnan(gov.lastPredictedPower()));
    EXPECT_EQ(gov.lastExploration(), nullptr);
    EXPECT_FALSE(gov.decideNb().has_value());
}

TEST(DegradedMode, RepromotionReturnsControlToTheInnerPolicy)
{
    Fixture fx;
    fx.inner.next_decision.assign(fx.cfg.n_cus, 4);
    auto &gov = fx.gov;

    gov.setDegraded(true);
    gov.decide(fx.record(3, 50.0), 95.0);
    gov.decide(fx.record(3, 50.0), 95.0);
    EXPECT_EQ(gov.degradedIntervals(), 2u);
    EXPECT_EQ(fx.inner.decide_calls, 0u);

    gov.setDegraded(false);
    const auto vf = gov.decide(fx.record(3, 50.0), 95.0);
    EXPECT_EQ(vf, fx.inner.next_decision);
    EXPECT_FALSE(gov.degradedNow());
    EXPECT_EQ(fx.inner.decide_calls, 1u);
    EXPECT_EQ(gov.degradedIntervals(), 2u); // not incremented again
    EXPECT_DOUBLE_EQ(gov.lastPredictedPower(), 77.0);
}

TEST(DegradedMode, UncappedRunsNeverStepDown)
{
    Fixture fx;
    auto &gov = fx.gov;
    gov.setDegraded(true);

    // CapSchedule::unlimited() hands decide() a huge-but-finite cap;
    // the guard band must not fire on any physical power.
    const double no_cap = governor::CapSchedule::unlimited().capAt(0);
    const auto vf = gov.decide(fx.record(3, 500.0), no_cap);
    EXPECT_EQ(vf, std::vector<std::size_t>(fx.cfg.n_cus, 3));
}

TEST(DegradedMode, NeverToldDegradedDelegates)
{
    Fixture fx;
    fx.inner.next_decision.assign(fx.cfg.n_cus, 1);
    // Far over the cap: the safe policy would step down, but nobody
    // has set a degraded verdict.
    const auto vf = fx.gov.decide(fx.record(3, 500.0), 10.0);
    EXPECT_EQ(vf, fx.inner.next_decision);
    EXPECT_FALSE(fx.gov.degradedNow());
}

TEST(DegradedMode, NameWrapsTheInnerName)
{
    Fixture fx;
    EXPECT_EQ(fx.gov.name(), "degraded-mode(mock)");
}

} // namespace
