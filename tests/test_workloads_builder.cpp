/**
 * @file
 * Tests for the custom-workload ProfileBuilder and the shared phase
 * derivation.
 */

#include <gtest/gtest.h>

#include "ppep/sim/chip.hpp"
#include "ppep/workloads/builder.hpp"

namespace {

using namespace ppep::workloads;

TEST(DerivePhase, ProducesValidPhases)
{
    for (double mem : {0.0, 0.3, 0.7, 1.0})
        for (double dram : {0.0, 0.5, 1.0}) {
            const auto p =
                derivePhase(mem, dram, 0.3, 0.15, 0.03, 0.4, 1e9);
            EXPECT_NO_FATAL_FAILURE(p.validate());
        }
}

TEST(DerivePhase, MemoryIntensityDrivesMemoryRates)
{
    const auto cpu = derivePhase(0.05, 0.3, 0.1, 0.15, 0.03, 0.3, 1e9);
    const auto mem = derivePhase(0.90, 0.3, 0.1, 0.15, 0.03, 0.3, 1e9);
    EXPECT_GT(mem.l2req_per_inst, 3.0 * cpu.l2req_per_inst);
    EXPECT_GT(mem.leading_per_inst, 3.0 * cpu.leading_per_inst);
    EXPECT_GT(mem.dcache_per_inst, cpu.dcache_per_inst);
}

TEST(DerivePhase, DramShareDrivesL3MissRate)
{
    const auto l3_heavy = derivePhase(0.5, 0.0, 0.1, 0.1, 0.02, 0.3, 1e9);
    const auto dram_heavy =
        derivePhase(0.5, 1.0, 0.1, 0.1, 0.02, 0.3, 1e9);
    EXPECT_LT(l3_heavy.l3_miss_rate, 0.2);
    EXPECT_GT(dram_heavy.l3_miss_rate, 0.85);
}

TEST(DerivePhase, ClampsOutOfRangeInputs)
{
    const auto p = derivePhase(5.0, -1.0, 0.1, 2.0, 3.0, 0.3, 1e9);
    EXPECT_NO_FATAL_FAILURE(p.validate());
    EXPECT_LE(p.branch_per_inst, 0.5);
    EXPECT_DOUBLE_EQ(p.l3_miss_rate, 0.15); // dram clamped to 0
}

TEST(Builder, KnobsPersistAcrossPhases)
{
    ProfileBuilder b("custom");
    b.memoryIntensity(0.8).dramShare(0.9).addPhase(1e9);
    b.memoryIntensity(0.1).addPhase(2e9); // dramShare persists
    ASSERT_EQ(b.phaseCount(), 2u);
    EXPECT_GT(b.phases()[0].l2req_per_inst,
              b.phases()[1].l2req_per_inst);
    EXPECT_DOUBLE_EQ(b.phases()[0].l3_miss_rate,
                     b.phases()[1].l3_miss_rate);
    EXPECT_DOUBLE_EQ(b.phases()[1].inst_count, 2e9);
}

TEST(Builder, MakeJobCarriesName)
{
    ProfileBuilder b("my-app");
    b.addPhase(1e8);
    const auto job = b.makeJob();
    EXPECT_EQ(job->name(), "my-app");
    EXPECT_FALSE(job->finished());
}

TEST(Builder, LoopingJobLoops)
{
    ProfileBuilder b("loop-app");
    b.addPhase(1e7);
    auto job = b.makeLoopingJob();
    job->advance(5e7);
    EXPECT_FALSE(job->finished());
}

TEST(Builder, CustomJobRunsOnChip)
{
    ProfileBuilder b("chip-app");
    b.memoryIntensity(0.6).fpuPerInst(0.4).addPhase(5e8);
    ppep::sim::Chip chip(ppep::sim::fx8320Config(), 1);
    chip.setJob(0, b.makeJob());
    const auto &r = chip.tick();
    EXPECT_GT(r.truth.activity[0].instructions, 1e6);
    EXPECT_GT(r.truth.power.core_dynamic[0], 0.5);
}

TEST(BuilderDeath, RejectsBadKnobs)
{
    ProfileBuilder b("bad");
    EXPECT_DEATH(b.memoryIntensity(1.5), "out of");
    EXPECT_DEATH(b.branchRate(0.9), "out of");
    EXPECT_DEATH(b.resourceStallCpi(0.0), "floor");
    EXPECT_DEATH(b.addPhase(0.0), "instructions");
}

TEST(BuilderDeath, EmptyProfileCannotBuild)
{
    ProfileBuilder b("empty");
    EXPECT_DEATH(b.makeJob(), "no phases");
}

TEST(BuilderDeath, EmptyNameRejected)
{
    EXPECT_DEATH(ProfileBuilder(""), "needs a name");
}

} // namespace
