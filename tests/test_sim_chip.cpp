/**
 * @file
 * Integration tests for the assembled chip simulator.
 */

#include <gtest/gtest.h>

#include "ppep/sim/chip.hpp"
#include "ppep/workloads/microbench.hpp"

namespace {

using namespace ppep::sim;

TEST(Chip, IdleChipDrawsStaticPowerOnly)
{
    Chip chip(fx8320Config(), 1);
    const auto &r = chip.tick();
    EXPECT_DOUBLE_EQ(r.truth.power.coreDynamicTotal(), 0.0);
    EXPECT_GT(r.truth.power.total, 15.0);
    EXPECT_GT(r.sensor_power_w, 10.0);
}

TEST(Chip, BusyCoreProducesEventsAndDynamicPower)
{
    Chip chip(fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    const auto &r = chip.tick();
    EXPECT_GT(r.truth.activity[0].instructions, 1e6);
    EXPECT_GT(r.truth.power.core_dynamic[0], 0.5);
    EXPECT_DOUBLE_EQ(r.truth.power.core_dynamic[1], 0.0);
}

TEST(Chip, DeterministicForSameSeed)
{
    const auto run = [](std::uint64_t seed) {
        Chip chip(fx8320Config(), seed);
        chip.setJob(0, ppep::workloads::makeHeater());
        std::vector<double> powers;
        for (int i = 0; i < 50; ++i)
            powers.push_back(chip.tick().sensor_power_w);
        return powers;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(Chip, JobFinishesAndCoreGoesIdle)
{
    Chip chip(fx8320Config(), 1);
    Phase p;
    p.inst_count = 5e6; // far less than one tick of work
    chip.setJob(0, std::make_unique<Job>("tiny",
                                         std::vector<Phase>{p}));
    const TickResult r1 = chip.tick();
    EXPECT_NEAR(r1.truth.activity[0].instructions, 5e6, 1.0);
    EXPECT_TRUE(chip.job(0)->finished());
    const TickResult r2 = chip.tick();
    EXPECT_DOUBLE_EQ(r2.truth.activity[0].instructions, 0.0);
}

TEST(Chip, PowerGatingGatesIdleCus)
{
    auto cfg = fx8320Config();
    Chip chip(cfg, 1);
    chip.setPowerGatingEnabled(true);
    chip.setJob(0, ppep::workloads::makeBenchA()); // CU0 busy
    const auto &r = chip.tick();
    EXPECT_FALSE(r.truth.cu_gated[0]);
    EXPECT_TRUE(r.truth.cu_gated[1]);
    EXPECT_TRUE(r.truth.cu_gated[2]);
    EXPECT_TRUE(r.truth.cu_gated[3]);
    EXPECT_FALSE(r.truth.nb_gated); // a CU is alive
}

TEST(Chip, FullyIdleGatedChipGatesNb)
{
    Chip chip(fx8320Config(), 1);
    chip.setPowerGatingEnabled(true);
    const auto &r = chip.tick();
    EXPECT_TRUE(r.truth.nb_gated);
    // Only base power (+ residuals) remains.
    EXPECT_LT(r.truth.power.total, 10.0);
}

TEST(Chip, GatingReducesPower)
{
    Chip gated(fx8320Config(), 1), open(fx8320Config(), 1);
    gated.setPowerGatingEnabled(true);
    gated.setJob(0, ppep::workloads::makeBenchA());
    open.setJob(0, ppep::workloads::makeBenchA());
    double p_gated = 0.0, p_open = 0.0;
    for (int i = 0; i < 20; ++i) {
        p_gated += gated.tick().truth.power.total;
        p_open += open.tick().truth.power.total;
    }
    EXPECT_LT(p_gated, p_open - 20.0 * 5.0); // >=5 W apart on average
}

TEST(ChipDeath, PgUnsupportedRejected)
{
    Chip chip(phenomIIConfig(), 1);
    EXPECT_DEATH(chip.setPowerGatingEnabled(true),
                 "does not support power gating");
}

TEST(Chip, SharedRailUsesMaxVoltage)
{
    auto cfg = fx8320Config();
    ASSERT_FALSE(cfg.per_cu_voltage);
    Chip chip(cfg, 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    chip.setJob(2, ppep::workloads::makeBenchA());
    chip.setCuVf(0, 0); // CU0 slow
    chip.setCuVf(1, 4); // CU1 fast
    // Both CUs see the highest requested voltage on the shared rail.
    EXPECT_DOUBLE_EQ(chip.effectiveCuVoltage(0),
                     cfg.vf_table.state(4).voltage);
    EXPECT_DOUBLE_EQ(chip.effectiveCuVoltage(1),
                     cfg.vf_table.state(4).voltage);
}

TEST(Chip, PerCuVoltagePlanesIndependent)
{
    auto cfg = fx8320Config();
    cfg.per_cu_voltage = true;
    Chip chip(cfg, 1);
    chip.setCuVf(0, 0);
    chip.setCuVf(1, 4);
    EXPECT_DOUBLE_EQ(chip.effectiveCuVoltage(0),
                     cfg.vf_table.state(0).voltage);
    EXPECT_DOUBLE_EQ(chip.effectiveCuVoltage(1),
                     cfg.vf_table.state(4).voltage);
}

TEST(Chip, LowerVfLowersPowerAndThroughput)
{
    const auto run_at = [](std::size_t vf) {
        Chip chip(fx8320Config(), 1);
        chip.setAllVf(vf);
        for (std::size_t c = 0; c < 8; ++c)
            chip.setJob(c, ppep::workloads::makeHeater());
        double power = 0.0, inst = 0.0;
        for (int i = 0; i < 25; ++i) {
            const auto &r = chip.tick();
            power += r.truth.power.total;
            for (const auto &a : r.truth.activity)
                inst += a.instructions;
        }
        return std::pair{power, inst};
    };
    const auto [p_hi, i_hi] = run_at(4);
    const auto [p_lo, i_lo] = run_at(0);
    EXPECT_GT(p_hi, 1.8 * p_lo);
    EXPECT_GT(i_hi, 2.0 * i_lo);
}

TEST(Chip, TemperatureRisesUnderLoad)
{
    Chip chip(fx8320Config(), 1);
    const double start = chip.temperatureK();
    for (std::size_t c = 0; c < 8; ++c)
        chip.setJob(c, ppep::workloads::makeHeater());
    chip.run(500); // 10 s
    EXPECT_GT(chip.temperatureK(), start + 5.0);
}

TEST(Chip, PmcReadMatchesOracleForSteadyLoad)
{
    Chip chip(fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    EventVector oracle{};
    for (int t = 0; t < 10; ++t) {
        const auto &r = chip.tick();
        for (std::size_t e = 0; e < kNumEvents; ++e)
            oracle[e] += r.truth.activity[0].events[e];
    }
    const auto pmc = chip.readPmc(0);
    for (std::size_t e = 0; e < kNumEvents; ++e) {
        if (oracle[e] == 0.0) {
            EXPECT_DOUBLE_EQ(pmc[e], 0.0);
        } else {
            // bench_A is steady: extrapolation error stays small.
            EXPECT_NEAR(pmc[e] / oracle[e], 1.0, 0.05) << "event " << e;
        }
    }
}

TEST(Chip, TimeAdvances)
{
    Chip chip(fx8320Config(), 1);
    chip.run(10);
    EXPECT_NEAR(chip.timeS(), 0.2, 1e-12);
}

TEST(Chip, MemoryBoundJobSlowerThanCpuBound)
{
    const auto ips_of = [](bool memory_bound) {
        Chip chip(fx8320Config(), 1);
        Phase p;
        if (memory_bound) {
            p.l2req_per_inst = 0.06;
            p.l2miss_per_inst = 0.025;
            p.leading_per_inst = 0.007;
            p.l3_miss_rate = 0.8;
        }
        chip.setJob(0, std::make_unique<Job>(
                           memory_bound ? "mem" : "cpu",
                           std::vector<Phase>{p}, true));
        double inst = 0.0;
        for (int i = 0; i < 20; ++i)
            inst += chip.tick().truth.activity[0].instructions;
        return inst;
    };
    EXPECT_GT(ips_of(false), 1.5 * ips_of(true));
}

} // namespace
