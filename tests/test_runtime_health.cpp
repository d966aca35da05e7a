/**
 * @file
 * Unit tests for the HealthMonitor state machine: fault-count and
 * divergence-EWMA demotion, the latching degraded state, hysteresis
 * between the clean and demote thresholds, and re-promotion after a
 * clean streak.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ppep/runtime/health.hpp"

namespace {

using namespace ppep::runtime;
using ppep::trace::SampleHealth;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

SampleHealth
cleanInterval()
{
    SampleHealth h;
    h.ticks = 10;
    return h;
}

SampleHealth
faultyInterval(std::size_t events)
{
    SampleHealth h;
    h.ticks = 10;
    h.sensor_rejects = events;
    return h;
}

TEST(HealthMonitor, StartsHealthy)
{
    HealthMonitor mon;
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.divergenceEwma(), 0.0);
    EXPECT_EQ(mon.demotions(), 0u);
    EXPECT_EQ(mon.intervalsObserved(), 0u);
}

TEST(HealthMonitor, StaysHealthyOnCleanIntervals)
{
    HealthMonitor mon;
    for (int i = 0; i < 50; ++i)
        mon.observe(cleanInterval(), 60.0, 60.5);
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.demotions(), 0u);
    EXPECT_EQ(mon.intervalsObserved(), 50u);
    EXPECT_NEAR(mon.divergenceEwma(), 0.5, 0.01);
}

TEST(HealthMonitor, DemotesOnFaultBurst)
{
    HealthMonitor mon;
    mon.observe(cleanInterval(), 60.0, 60.0);
    EXPECT_FALSE(mon.degraded());
    mon.observe(faultyInterval(HealthMonitor::kDemoteFaultEvents), 60.0,
                60.0);
    EXPECT_TRUE(mon.degraded());
    EXPECT_EQ(mon.demotions(), 1u);
    EXPECT_EQ(mon.cleanStreak(), 0u);
}

TEST(HealthMonitor, FaultsBelowThresholdDoNotDemote)
{
    HealthMonitor mon;
    for (int i = 0; i < 20; ++i)
        mon.observe(faultyInterval(HealthMonitor::kDemoteFaultEvents - 1),
                    60.0, 60.0);
    EXPECT_FALSE(mon.degraded());
    // ...but they are never "clean" either.
    EXPECT_EQ(mon.cleanStreak(), 0u);
}

TEST(HealthMonitor, DemotesWhenDivergenceEwmaCrosses)
{
    HealthMonitor mon;
    const double bad = HealthMonitor::kDemoteDivergenceW * 3.0;
    std::size_t demoted_at = 0;
    for (std::size_t i = 1; i <= 20 && !mon.degraded(); ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + bad);
        demoted_at = i;
    }
    EXPECT_TRUE(mon.degraded());
    // The EWMA needs a few intervals to cross — one glitch is not
    // enough to flip the verdict.
    EXPECT_GT(demoted_at, 1u);
    EXPECT_GT(mon.divergenceEwma(), HealthMonitor::kDemoteDivergenceW);
}

TEST(HealthMonitor, SingleGlitchDoesNotDemote)
{
    HealthMonitor mon;
    mon.observe(cleanInterval(), 60.0, 100.0); // one wild interval
    EXPECT_FALSE(mon.degraded());
    mon.observe(cleanInterval(), 60.0, 60.0);
    EXPECT_FALSE(mon.degraded());
}

TEST(HealthMonitor, DegradedStateLatchesUntilCleanStreak)
{
    HealthMonitor mon;
    mon.observe(faultyInterval(10), 60.0, 60.0);
    ASSERT_TRUE(mon.degraded());
    const std::size_t need = HealthMonitor::kRepromoteClean;
    for (std::size_t i = 1; i < need; ++i) {
        mon.observe(cleanInterval(), kNaN, 60.0);
        EXPECT_TRUE(mon.degraded()) << "after " << i << " clean";
    }
    mon.observe(cleanInterval(), kNaN, 60.0);
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.repromotions(), 1u);
    EXPECT_EQ(mon.cleanStreak(), 0u); // consumed by the re-promotion
}

TEST(HealthMonitor, FaultDuringRecoveryResetsTheStreak)
{
    HealthMonitor mon;
    mon.observe(faultyInterval(10), 60.0, 60.0);
    ASSERT_TRUE(mon.degraded());
    const std::size_t need = HealthMonitor::kRepromoteClean;
    for (std::size_t i = 1; i < need; ++i)
        mon.observe(cleanInterval(), kNaN, 60.0);
    mon.observe(faultyInterval(1), kNaN, 60.0); // streak broken
    EXPECT_TRUE(mon.degraded());
    for (std::size_t i = 1; i < need; ++i) {
        mon.observe(cleanInterval(), kNaN, 60.0);
        EXPECT_TRUE(mon.degraded());
    }
    mon.observe(cleanInterval(), kNaN, 60.0);
    EXPECT_FALSE(mon.degraded());
}

TEST(HealthMonitor, NanPredictionHoldsTheEwma)
{
    HealthMonitor mon;
    for (int i = 0; i < 10; ++i)
        mon.observe(cleanInterval(), 60.0, 70.0);
    const double held = mon.divergenceEwma();
    ASSERT_GT(held, 0.0);
    // Degraded mode predicts nothing; the EWMA must not decay toward
    // zero on missing data (that would re-promote a blind system).
    for (int i = 0; i < 10; ++i)
        mon.observe(cleanInterval(), kNaN, 70.0);
    EXPECT_EQ(mon.divergenceEwma(), held);
}

TEST(HealthMonitor, HysteresisBlocksRepromotionBetweenThresholds)
{
    // From a zero EWMA an error of 4x lands the EWMA exactly on x
    // (alpha = 0.25), and an error of x then holds it there; every
    // value below is exactly representable.
    static_assert(HealthMonitor::kEwmaAlpha == 0.25);
    const double mid = 0.5 * (HealthMonitor::kCleanDivergenceW +
                              HealthMonitor::kDemoteDivergenceW);
    HealthMonitor mon;
    mon.observe(faultyInterval(10), 60.0, 60.0 + 4.0 * mid);
    ASSERT_TRUE(mon.degraded());
    ASSERT_EQ(mon.divergenceEwma(), mid);
    // The EWMA sits between clean (8 W) and demote (15 W): not
    // demotable, but not clean either — the system must stay
    // degraded forever.
    for (int i = 0; i < 30; ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + mid);
        EXPECT_EQ(mon.divergenceEwma(), mid);
        EXPECT_TRUE(mon.degraded());
        EXPECT_EQ(mon.cleanStreak(), 0u);
    }
}

TEST(HealthMonitor, CountsMultipleDemotionCycles)
{
    HealthMonitor mon;
    const std::size_t need = HealthMonitor::kRepromoteClean;
    for (int cycle = 0; cycle < 3; ++cycle) {
        mon.observe(faultyInterval(10), 60.0, 60.0);
        for (std::size_t i = 0; i < need; ++i)
            mon.observe(cleanInterval(), kNaN, 60.0);
    }
    EXPECT_EQ(mon.demotions(), 3u);
    EXPECT_EQ(mon.repromotions(), 3u);
    EXPECT_FALSE(mon.degraded());
}

// --- exact threshold boundaries ----------------------------------------

TEST(HealthMonitor, DivergenceExactlyAtDemoteThresholdStaysHealthy)
{
    // Demotion is strict >: an EWMA sitting exactly on the line is
    // still (barely) trusted. From a zero EWMA an error of 60 W lands
    // exactly on 15 W, and an error of 15 W then holds it there.
    static_assert(HealthMonitor::kEwmaAlpha == 0.25);
    constexpr double kLine = HealthMonitor::kDemoteDivergenceW;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    HealthMonitor mon;
    mon.observe(cleanInterval(), 0.0, 4.0 * kLine);
    EXPECT_EQ(mon.divergenceEwma(), kLine);
    EXPECT_FALSE(mon.degraded());
    for (int i = 0; i < 10; ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + kLine);
        EXPECT_EQ(mon.divergenceEwma(), kLine);
        EXPECT_FALSE(mon.degraded());
    }
    // The next double above 60 W scales to the next double above the
    // line (x 0.25 is exact), and that demotes.
    HealthMonitor over;
    over.observe(cleanInterval(), 0.0, std::nextafter(4.0 * kLine, kInf));
    EXPECT_EQ(over.divergenceEwma(), std::nextafter(kLine, kInf));
    EXPECT_TRUE(over.degraded());
}

TEST(HealthMonitor, DivergenceExactlyAtCleanThresholdCountsClean)
{
    // Cleanliness is inclusive <=: an EWMA of exactly
    // kCleanDivergenceW earns streak credit and eventually
    // re-promotes; the next double above it never does.
    static_assert(HealthMonitor::kEwmaAlpha == 0.25);
    constexpr double kLine = HealthMonitor::kCleanDivergenceW;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    HealthMonitor mon;
    mon.observe(faultyInterval(10), 0.0, 4.0 * kLine);
    ASSERT_TRUE(mon.degraded());
    ASSERT_EQ(mon.divergenceEwma(), kLine);
    for (std::size_t i = 0; i < HealthMonitor::kRepromoteClean; ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + kLine);
        EXPECT_EQ(mon.divergenceEwma(), kLine);
    }
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.repromotions(), 1u);

    HealthMonitor over;
    over.observe(faultyInterval(10), 0.0,
                 std::nextafter(4.0 * kLine, kInf));
    ASSERT_TRUE(over.degraded());
    ASSERT_EQ(over.divergenceEwma(), std::nextafter(kLine, kInf));
    // No prediction holds the EWMA just above the line.
    for (int i = 0; i < 30; ++i)
        over.observe(cleanInterval(), kNaN, 60.0);
    EXPECT_TRUE(over.degraded());
    EXPECT_EQ(over.cleanStreak(), 0u);
}

TEST(HealthMonitor, FaultEventsExactlyAtThresholdDemote)
{
    HealthMonitor below;
    below.observe(faultyInterval(HealthMonitor::kDemoteFaultEvents - 1),
                  60.0, 60.0);
    EXPECT_FALSE(below.degraded());

    HealthMonitor at;
    at.observe(faultyInterval(HealthMonitor::kDemoteFaultEvents), 60.0,
               60.0);
    EXPECT_TRUE(at.degraded());
}

} // namespace
