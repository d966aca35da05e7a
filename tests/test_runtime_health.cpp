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
    mon.observe(faultyInterval(mon.policy().demote_fault_events), 60.0,
                60.0);
    EXPECT_TRUE(mon.degraded());
    EXPECT_EQ(mon.demotions(), 1u);
    EXPECT_EQ(mon.cleanStreak(), 0u);
}

TEST(HealthMonitor, FaultsBelowThresholdDoNotDemote)
{
    HealthMonitor mon;
    for (int i = 0; i < 20; ++i)
        mon.observe(faultyInterval(mon.policy().demote_fault_events - 1),
                    60.0, 60.0);
    EXPECT_FALSE(mon.degraded());
    // ...but they are never "clean" either.
    EXPECT_EQ(mon.cleanStreak(), 0u);
}

TEST(HealthMonitor, DemotesWhenDivergenceEwmaCrosses)
{
    HealthMonitor mon;
    const double bad = mon.policy().demote_divergence_w * 3.0;
    std::size_t demoted_at = 0;
    for (std::size_t i = 1; i <= 20 && !mon.degraded(); ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + bad);
        demoted_at = i;
    }
    EXPECT_TRUE(mon.degraded());
    // The EWMA needs a few intervals to cross — one glitch is not
    // enough to flip the verdict.
    EXPECT_GT(demoted_at, 1u);
    EXPECT_GT(mon.divergenceEwma(), mon.policy().demote_divergence_w);
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
    const std::size_t need = mon.policy().repromote_clean;
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
    const std::size_t need = mon.policy().repromote_clean;
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
    HealthPolicy pol;
    pol.ewma_alpha = 1.0; // EWMA == the latest error, for directness
    HealthMonitor mon(pol);
    mon.observe(faultyInterval(10), 60.0, 60.0);
    ASSERT_TRUE(mon.degraded());
    // Error sits between clean (8 W) and demote (15 W): not demotable,
    // but not clean either — the system must stay degraded forever.
    const double mid =
        0.5 * (pol.clean_divergence_w + pol.demote_divergence_w);
    for (int i = 0; i < 30; ++i) {
        mon.observe(cleanInterval(), 60.0, 60.0 + mid);
        EXPECT_TRUE(mon.degraded());
        EXPECT_EQ(mon.cleanStreak(), 0u);
    }
}

TEST(HealthMonitor, CountsMultipleDemotionCycles)
{
    HealthMonitor mon;
    const std::size_t need = mon.policy().repromote_clean;
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
    // still (barely) trusted.
    HealthPolicy pol;
    pol.ewma_alpha = 1.0; // EWMA == the latest error
    HealthMonitor mon(pol);
    for (int i = 0; i < 10; ++i) {
        mon.observe(cleanInterval(), 60.0,
                    60.0 + pol.demote_divergence_w);
        EXPECT_FALSE(mon.degraded());
    }
    // Nudge the *measured* value (one ulp at ~75 W survives the
    // subtraction; one ulp at 15 W would be absorbed by 60.0 + x).
    mon.observe(cleanInterval(), 60.0,
                std::nextafter(60.0 + pol.demote_divergence_w, 1e300));
    EXPECT_TRUE(mon.degraded());
}

TEST(HealthMonitor, DivergenceExactlyAtCleanThresholdCountsClean)
{
    // Cleanliness is inclusive <=: exactly clean_divergence_w earns
    // streak credit and eventually re-promotes.
    HealthPolicy pol;
    pol.ewma_alpha = 1.0;
    HealthMonitor mon(pol);
    mon.observe(faultyInterval(10), 60.0, 60.0);
    ASSERT_TRUE(mon.degraded());
    for (std::size_t i = 0; i < pol.repromote_clean; ++i)
        mon.observe(cleanInterval(), 60.0,
                    60.0 + pol.clean_divergence_w);
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.repromotions(), 1u);
}

TEST(HealthMonitor, FaultEventsExactlyAtThresholdDemote)
{
    HealthMonitor below;
    below.observe(faultyInterval(below.policy().demote_fault_events - 1),
                  60.0, 60.0);
    EXPECT_FALSE(below.degraded());

    HealthMonitor at;
    at.observe(faultyInterval(at.policy().demote_fault_events), 60.0,
               60.0);
    EXPECT_TRUE(at.degraded());
}

// --- model swaps --------------------------------------------------------

TEST(HealthMonitor, ModelSwapResetsEwmaAndStreak)
{
    HealthMonitor mon;
    for (int i = 0; i < 20; ++i)
        mon.observe(cleanInterval(), 60.0, 70.0);
    ASSERT_GT(mon.divergenceEwma(), 0.0);
    mon.noteModelSwap();
    EXPECT_EQ(mon.divergenceEwma(), 0.0);
    EXPECT_EQ(mon.cleanStreak(), 0u);
    EXPECT_EQ(mon.modelSwaps(), 1u);
}

TEST(HealthMonitor, ModelSwapDoesNotLiftTheDegradedLatch)
{
    // A swap mid-recovery erases the streak earned under the retired
    // model; re-promotion needs repromote_clean fresh intervals under
    // the new one.
    HealthMonitor mon;
    mon.observe(faultyInterval(10), 60.0, 60.0);
    ASSERT_TRUE(mon.degraded());
    const std::size_t need = mon.policy().repromote_clean;
    for (std::size_t i = 1; i < need; ++i)
        mon.observe(cleanInterval(), kNaN, 60.0);
    mon.noteModelSwap();
    EXPECT_TRUE(mon.degraded());
    for (std::size_t i = 1; i < need; ++i) {
        mon.observe(cleanInterval(), kNaN, 60.0);
        EXPECT_TRUE(mon.degraded()) << "after " << i << " clean";
    }
    mon.observe(cleanInterval(), kNaN, 60.0);
    EXPECT_FALSE(mon.degraded());
    EXPECT_EQ(mon.repromotions(), 1u);
}

TEST(HealthMonitor, SwapWhileHealthyKeepsGoverning)
{
    // The re-promotion hysteresis path of a swap on a healthy session:
    // an EWMA just under the demote line restarts from zero, so the
    // session does not demote on post-swap residue.
    HealthPolicy pol;
    pol.ewma_alpha = 1.0;
    HealthMonitor mon(pol);
    mon.observe(cleanInterval(), 60.0,
                60.0 + pol.demote_divergence_w); // at, not over
    ASSERT_FALSE(mon.degraded());
    mon.noteModelSwap();
    EXPECT_EQ(mon.divergenceEwma(), 0.0);
    mon.observe(cleanInterval(), 60.0, 60.5);
    EXPECT_FALSE(mon.degraded());
    EXPECT_DOUBLE_EQ(mon.divergenceEwma(), 0.5);
}

TEST(HealthMonitorDeath, DegeneratePoliciesAreFatal)
{
    HealthPolicy alpha;
    alpha.ewma_alpha = 0.0;
    EXPECT_DEATH(HealthMonitor{alpha}, "ewma_alpha");
    HealthPolicy swapped;
    swapped.clean_divergence_w = swapped.demote_divergence_w + 1.0;
    EXPECT_DEATH(HealthMonitor{swapped}, "clean threshold");
    HealthPolicy zero;
    zero.repromote_clean = 0;
    EXPECT_DEATH(HealthMonitor{zero}, "clean interval");
}

} // namespace
