/**
 * @file
 * Unit tests for interval collection and instruction-aligned
 * segmentation.
 */

#include <gtest/gtest.h>

#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/trace/segmenter.hpp"
#include "ppep/workloads/microbench.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep::trace;
namespace sim = ppep::sim;

TEST(Collector, IntervalDurationMatchesConfig)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    Collector col(chip);
    const auto rec = col.collectInterval();
    EXPECT_DOUBLE_EQ(rec.duration_s, 0.2);
    EXPECT_NEAR(chip.timeS(), 0.2, 1e-12);
}

TEST(Collector, IdleChipHasNoBusyCores)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    Collector col(chip);
    const auto rec = col.collectInterval();
    EXPECT_EQ(rec.busy_cores, 0u);
    EXPECT_DOUBLE_EQ(rec.oracleTotal(sim::Event::RetiredInst), 0.0);
}

TEST(Collector, BusyCoresCounted)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    chip.setJob(5, ppep::workloads::makeBenchA());
    Collector col(chip);
    EXPECT_EQ(col.collectInterval().busy_cores, 2u);
}

TEST(Collector, SensorAverageNearTruthAverage)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeHeater());
    Collector col(chip);
    const auto rec = col.collectInterval();
    EXPECT_NEAR(rec.sensor_power_w / rec.true_power_w, 1.0, 0.03);
}

TEST(Collector, TruthDecompositionConsistent)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeHeater());
    Collector col(chip);
    const auto rec = col.collectInterval();
    EXPECT_NEAR(rec.true_power_w, rec.true_idle_w + rec.true_dynamic_w,
                1e-9);
}

TEST(Collector, VfContextRecorded)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setAllVf(2);
    Collector col(chip);
    const auto rec = col.collectInterval();
    ASSERT_EQ(rec.cu_vf.size(), 4u);
    for (std::size_t vf : rec.cu_vf)
        EXPECT_EQ(vf, 2u);
    EXPECT_DOUBLE_EQ(rec.nb_vf.freq_ghz, 2.2);
}

TEST(Collector, PmcTotalsApproximateOracleForSteadyLoad)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    for (std::size_t c = 0; c < 8; ++c)
        chip.setJob(c, ppep::workloads::makeBenchA());
    Collector col(chip);
    const auto rec = col.collectInterval();
    const double pmc = rec.pmcTotal(sim::Event::RetiredInst);
    const double oracle = rec.oracleTotal(sim::Event::RetiredInst);
    EXPECT_NEAR(pmc / oracle, 1.0, 0.03);
}

TEST(Collector, CollectUntilFinishedStops)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    sim::Phase p;
    p.inst_count = 3e8; // finishes within a handful of intervals
    chip.setJob(0, std::make_unique<sim::Job>(
                       "short", std::vector<sim::Phase>{p}));
    Collector col(chip);
    const auto recs = col.collectUntilFinished(100);
    EXPECT_LT(recs.size(), 100u);
    EXPECT_TRUE(col.allJobsFinished());
    double total = 0.0;
    for (const auto &r : recs)
        total += r.oracle[0][sim::eventIndex(sim::Event::RetiredInst)];
    EXPECT_NEAR(total, 3e8, 3e8 * 1e-6);
}

TEST(Collector, CollectUntilFinishedHonoursCap)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA()); // loops forever
    Collector col(chip);
    EXPECT_EQ(col.collectUntilFinished(7).size(), 7u);
}

TEST(Collector, SizedForTheInstalledPlansLongestInterval)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setFaultPlan(sim::FaultPlan::parse("jitter=1,jitter_max=3"), 1);
    Collector col(chip);
    IntervalRecord rec;
    const std::size_t longest = chip.config().ticks_per_interval + 3;
    col.runTicks(longest, rec);
    EXPECT_EQ(col.sensorSamples().size(), longest);
    col.runTicks(2, rec);
    EXPECT_EQ(col.diodeSamples().size(), 2u);
}

TEST(CollectorDeathTest, IntervalLongerThanItWasSizedForIsFatal)
{
    // The sample scratch is sized at construction; a fault plan that
    // jitters intervals longer must be installed before the Collector.
    sim::Chip chip(sim::fx8320Config(), 1);
    Collector col(chip);
    IntervalRecord rec;
    EXPECT_DEATH(col.runTicks(chip.config().ticks_per_interval + 1, rec),
                 "longest interval");
}

TEST(Segmenter, TimelineAccumulates)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    Collector col(chip);
    const auto recs = col.collect(5);
    InstructionTimeline tl(recs, 0, /*use_pmc=*/false);
    double inst = 0.0;
    for (const auto &r : recs)
        inst += r.oracle[0][sim::eventIndex(sim::Event::RetiredInst)];
    EXPECT_NEAR(tl.totalInstructions(), inst, 1.0);
    EXPECT_DOUBLE_EQ(tl.cyclesAt(0.0), 0.0);
}

TEST(Segmenter, InterpolationIsMonotone)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeHeater());
    Collector col(chip);
    const auto recs = col.collect(5);
    InstructionTimeline tl(recs, 0, false);
    double prev = 0.0;
    const double total = tl.totalInstructions();
    for (int i = 1; i <= 20; ++i) {
        const double cyc = tl.cyclesAt(total * i / 20.0);
        EXPECT_GE(cyc, prev);
        prev = cyc;
    }
}

TEST(Segmenter, SegmentsCoverEqualInstructions)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    Collector col(chip);
    const auto recs = col.collect(6);
    InstructionTimeline tl(recs, 0, false);
    // Shave an ulp-scale margin so total/10 yields exactly ten segments
    // despite floating-point rounding in the cumulative sums.
    const double width = tl.totalInstructions() / 10.0 * (1.0 - 1e-12);
    const auto segs = segmentTimeline(tl, width);
    EXPECT_EQ(segs.size(), 10u);
    double cyc = 0.0;
    for (const auto &s : segs) {
        EXPECT_DOUBLE_EQ(s.instructions, width);
        cyc += s.cycles;
    }
    EXPECT_NEAR(cyc, tl.cyclesAt(tl.totalInstructions()),
                tl.cyclesAt(tl.totalInstructions()) * 1e-6);
}

TEST(Segmenter, SteadyWorkloadHasUniformSegments)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    Collector col(chip);
    const auto recs = col.collect(10);
    InstructionTimeline tl(recs, 0, false);
    const auto segs = segmentTimeline(tl, tl.totalInstructions() / 8.0);
    for (std::size_t i = 1; i < segs.size(); ++i)
        EXPECT_NEAR(segs[i].cycles / segs[0].cycles, 1.0, 0.05);
}

TEST(Segmenter, PartialTailDropped)
{
    sim::Chip chip(sim::fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    Collector col(chip);
    const auto recs = col.collect(3);
    InstructionTimeline tl(recs, 0, false);
    // Width that doesn't divide evenly: floor(total/width) segments.
    const double width = tl.totalInstructions() / 2.5;
    EXPECT_EQ(segmentTimeline(tl, width).size(), 2u);
}

} // namespace
