/**
 * @file
 * Unit tests for the per-core counter unit (PmcMultiplexer): counter
 * slots time-multiplexed over the twelve Table I events — the
 * mechanism behind the paper's dedup/IS/DC outliers — and its counter
 * faults (wrap, saturation, a skipped harvest).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/sim/pmc.hpp"

namespace {

using namespace ppep::sim;

EventVector
constantCounts(double value)
{
    EventVector v{};
    for (auto &x : v)
        x = value;
    return v;
}

/** Event e's count is e + 1 per tick, so a misplaced slot shows. */
EventVector
distinctCounts()
{
    EventVector v{};
    for (std::size_t e = 0; e < kNumEvents; ++e)
        v[e] = static_cast<double>(e + 1);
    return v;
}

void
tick(PmcMultiplexer &mux, const EventVector &counts)
{
    mux.observe(counts);
    mux.harvest();
}

TEST(Mux, TwoGroupsWithSixCounters)
{
    PmcMultiplexer mux(6);
    EXPECT_EQ(mux.slotCount(), 6u);
    EXPECT_EQ(mux.groupCount(), 2u);
    // Group 0 is E1..E6, group 1 is E7..E12.
    tick(mux, distinctCounts());
    const auto read = mux.readAndReset();
    for (std::size_t e = 0; e < kNumEvents; ++e)
        EXPECT_DOUBLE_EQ(read[e], e < 6 ? static_cast<double>(e + 1) : 0.0)
            << "event " << e;
}

TEST(Mux, SteadyCountsExtrapolateExactly)
{
    PmcMultiplexer mux(6);
    for (int t = 0; t < 10; ++t)
        tick(mux, constantCounts(100.0));
    const auto read = mux.readAndReset();
    // Each group saw 5 of 10 ticks at 100/tick -> extrapolated to 1000.
    for (std::size_t i = 0; i < kNumEvents; ++i)
        EXPECT_NEAR(read[i], 1000.0, 1e-9) << "event " << i;
}

TEST(Mux, ReadResetsState)
{
    PmcMultiplexer mux(6);
    tick(mux, constantCounts(50.0));
    tick(mux, constantCounts(50.0));
    mux.readAndReset();
    EXPECT_EQ(mux.ticksSinceReset(), 0u);
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Mux, UnobservedGroupReadsZero)
{
    PmcMultiplexer mux(6);
    tick(mux, constantCounts(100.0)); // only group 0 observed
    const auto read = mux.readAndReset();
    EXPECT_GT(read[0], 0.0);
    EXPECT_DOUBLE_EQ(read[11], 0.0);
}

TEST(Mux, PhaseFlipCausesExtrapolationError)
{
    // A workload alternating 200/0 per tick in sync with the rotation:
    // group 0 sees only the hot ticks, group 1 only the cold ones. The
    // extrapolated totals are badly wrong for both groups — the paper's
    // rapid-phase outlier mechanism, reproduced exactly.
    PmcMultiplexer mux(6);
    double truth = 0.0;
    for (int t = 0; t < 10; ++t) {
        const double v = (t % 2 == 0) ? 200.0 : 0.0;
        truth += v;
        tick(mux, constantCounts(v));
    }
    const auto read = mux.readAndReset();
    EXPECT_NEAR(read[0], 2.0 * truth, 1e-9); // group 0 doubles
    EXPECT_DOUBLE_EQ(read[11], 0.0);         // group 1 sees nothing
}

TEST(Mux, StaggerShiftsRotation)
{
    PmcMultiplexer a(6, 0);
    PmcMultiplexer b(6, 1);
    tick(a, constantCounts(100.0));
    tick(b, constantCounts(100.0));
    const auto ra = a.readAndReset();
    const auto rb = b.readAndReset();
    EXPECT_GT(ra[0], 0.0);
    EXPECT_DOUBLE_EQ(ra[11], 0.0);
    EXPECT_DOUBLE_EQ(rb[0], 0.0);
    EXPECT_GT(rb[11], 0.0);
}

TEST(Mux, TwelveCountersNeedNoMultiplexing)
{
    PmcMultiplexer mux(12);
    EXPECT_EQ(mux.groupCount(), 1u);
    for (int t = 0; t < 7; ++t)
        tick(mux, constantCounts(10.0));
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 70.0);
}

TEST(Mux, PartialLastGroupWithFiveSlots)
{
    // Five slots: groups E1..E5, E6..E10, E11..E12. The last group
    // leaves three slots idle.
    PmcMultiplexer mux(5);
    EXPECT_EQ(mux.groupCount(), 3u);
    const auto counts = distinctCounts();
    for (int g = 0; g < 3; ++g) {
        tick(mux, counts);
        const auto read = mux.readAndReset();
        for (std::size_t e = 0; e < kNumEvents; ++e) {
            const bool live = e / 5 == static_cast<std::size_t>(g);
            EXPECT_DOUBLE_EQ(read[e], live ? counts[e] : 0.0)
                << "group " << g << " event " << e;
        }
    }
    // Back at group 0 after one full rotation.
    tick(mux, counts);
    EXPECT_DOUBLE_EQ(mux.readAndReset()[0], counts[0]);
}

// --- the zero-coverage contract (documented on readAndReset) ------------

TEST(MuxZeroCoverage, ZeroTickGroupReadsExactlyZero)
{
    // Contract: a group that accumulated zero ticks since the last
    // reset reads exactly 0.0 for all its events — never a division
    // by zero coverage. Here group 1 (E7..E12) is starved for the
    // whole window.
    PmcMultiplexer mux(6, /*stagger=*/0);
    tick(mux, constantCounts(100.0)); // one tick: group 0 only
    ASSERT_EQ(mux.ticksSinceReset(), 1u);
    const auto read = mux.readAndReset();
    for (std::size_t i = 6; i < kNumEvents; ++i)
        EXPECT_DOUBLE_EQ(read[i], 0.0) << "event " << i;
}

TEST(MuxZeroCoverage, ZeroTickWindowReadsAllZero)
{
    // Degenerate window: readAndReset with no ticks at all returns the
    // all-zero vector and leaves the multiplexer usable.
    PmcMultiplexer mux(6);
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(mux.ticksSinceReset(), 0u);
    tick(mux, constantCounts(5.0));
    EXPECT_GT(mux.readAndReset()[0], 0.0);
}

TEST(MuxZeroCoverage, NoNanEverEscapes)
{
    // Whatever mixture of starved and covered groups, the extrapolated
    // vector is always finite.
    PmcMultiplexer mux(6);
    for (int t = 0; t < 3; ++t) {
        tick(mux, constantCounts(11.0));
        const auto read = mux.readAndReset();
        for (double v : read)
            EXPECT_TRUE(std::isfinite(v));
    }
}

// --- counter faults on the slots (the core's counter bank) -------------

TEST(PmcBankWrap, UnboundedByDefault)
{
    PmcMultiplexer mux(12);
    tick(mux, constantCounts(1e18));
    EXPECT_EQ(mux.wrapEvents(), 0u);
    EXPECT_DOUBLE_EQ(mux.readAndReset()[0], 1e18);
}

TEST(PmcBankWrap, CountWrapsAtConfiguredWidth)
{
    PmcMultiplexer mux(12);
    mux.setWrapBits(8); // wraps at 256
    mux.observe(constantCounts(100.0));
    mux.observe(constantCounts(100.0));
    EXPECT_EQ(mux.wrapEvents(), 0u);
    mux.observe(constantCounts(100.0)); // 300 -> wraps to 44
    EXPECT_EQ(mux.wrapEvents(), kNumEvents);
    mux.harvest();
    for (double v : mux.readAndReset())
        EXPECT_DOUBLE_EQ(v, 44.0);
    mux.observe(constantCounts(512.0)); // exactly two wraps -> 0
    EXPECT_EQ(mux.wrapEvents(), 3 * kNumEvents);
    mux.harvest();
    for (double v : mux.readAndReset())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MuxFault, SaturatedSlotReadsFullScale)
{
    PmcMultiplexer mux(6);
    mux.setWrapBits(8);
    mux.observe(constantCounts(10.0));
    mux.saturate(2); // slot 2 of group 0 counts E3
    mux.harvest();
    const auto read = mux.readAndReset();
    EXPECT_DOUBLE_EQ(read[2], 255.0);
    EXPECT_DOUBLE_EQ(read[1], 10.0);
    EXPECT_DOUBLE_EQ(read[8], 0.0); // E9 (slot 2 of group 1) untouched
}

TEST(MuxFault, SaturatingAnIdleSlotChangesNothing)
{
    // Group 2 of a five-slot unit leaves slots 2..4 idle; corrupting
    // one must not leak into the E3 that slot 2 counts in group 0.
    PmcMultiplexer mux(5, /*stagger=*/2);
    mux.setWrapBits(8);
    mux.observe(constantCounts(1.0));
    mux.saturate(2);
    mux.harvest();
    tick(mux, constantCounts(1.0)); // group 0
    const auto read = mux.readAndReset();
    EXPECT_DOUBLE_EQ(read[2], 2.0);
    EXPECT_DOUBLE_EQ(read[10], 2.0);
}

TEST(MuxFault, SkippedHarvestCarriesIntoNextUnrotated)
{
    // The harvest misses a tick: its counts stay in the slots, add to
    // the next tick's, and the pair is harvested as one tick of group 0.
    PmcMultiplexer mux(6);
    mux.observe(constantCounts(100.0)); // harvest dropped
    tick(mux, constantCounts(50.0));
    EXPECT_EQ(mux.ticksSinceReset(), 1u);
    auto read = mux.readAndReset();
    EXPECT_DOUBLE_EQ(read[0], 150.0);
    EXPECT_DOUBLE_EQ(read[11], 0.0);
    // Rotated once only: the next tick counts group 1.
    tick(mux, constantCounts(7.0));
    read = mux.readAndReset();
    EXPECT_DOUBLE_EQ(read[0], 0.0);
    EXPECT_DOUBLE_EQ(read[11], 7.0);
}

TEST(MuxDeath, SaturationNeedsAFiniteWidth)
{
    PmcMultiplexer mux(6);
    EXPECT_DEATH(mux.saturate(0), "full scale");
    EXPECT_DEATH(PmcMultiplexer(0), "at least one counter");
}

// Property sweep: with steady per-tick counts, extrapolation is exact
// for any slot count once every group has been observed.
class WidthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WidthSweep, SteadyExtrapolationExact)
{
    const std::size_t width = GetParam();
    PmcMultiplexer mux(width);
    const std::size_t groups = mux.groupCount();
    const std::size_t ticks = groups * 6; // every group observed equally
    for (std::size_t t = 0; t < ticks; ++t)
        tick(mux, constantCounts(7.0));
    const auto read = mux.readAndReset();
    for (std::size_t i = 0; i < kNumEvents; ++i)
        EXPECT_NEAR(read[i], 7.0 * static_cast<double>(ticks), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 12u,
                                           16u));

} // namespace
