/**
 * @file
 * Tests for the hardware boost states (the Sec. II/IV-E extension): a
 * firmware-visible boost request that the hardware grants only while
 * few CUs are busy and the die is cool.
 */

#include <gtest/gtest.h>

#include "ppep/sim/chip.hpp"
#include "ppep/workloads/microbench.hpp"

namespace {

using namespace ppep::sim;

TEST(BoostConfig, FactoryAddsTwoStates)
{
    const auto cfg = fx8320ConfigWithBoost();
    ASSERT_EQ(cfg.boost_states.size(), 2u);
    EXPECT_DOUBLE_EQ(cfg.boost_states[0].freq_ghz, 3.8);
    EXPECT_DOUBLE_EQ(cfg.boost_states[1].freq_ghz, 4.0);
    EXPECT_GT(cfg.boost_states[0].voltage, 1.320);
}

TEST(BoostConfig, PlainConfigHasNone)
{
    const auto cfg = fx8320Config();
    EXPECT_TRUE(cfg.boost_states.empty());
    Chip chip(cfg, 1);
    EXPECT_EQ(chip.stateCount(), 5u);
}

TEST(BoostConfigDeath, DescendingBoostRejected)
{
    auto cfg = fx8320Config();
    cfg.boost_states = {{1.40, 3.4}}; // below the 3.5 GHz top P-state
    EXPECT_DEATH(cfg.validate(), "boost states must ascend");
}

TEST(Boost, StateCountAndIndexing)
{
    Chip chip(fx8320ConfigWithBoost(), 1);
    EXPECT_EQ(chip.stateCount(), 7u);
    EXPECT_DOUBLE_EQ(chip.stateOf(4).freq_ghz, 3.5); // VF5
    EXPECT_DOUBLE_EQ(chip.stateOf(5).freq_ghz, 3.8); // boost 1
    EXPECT_DOUBLE_EQ(chip.stateOf(6).freq_ghz, 4.0); // boost 2
}

TEST(BoostDeath, RequestBeyondBoostRejected)
{
    Chip chip(fx8320ConfigWithBoost(), 1);
    EXPECT_DEATH(chip.setCuVf(0, 7), "VF index out of range");
}

TEST(BoostDeath, PlainChipRejectsBoostRequest)
{
    Chip chip(fx8320Config(), 1);
    EXPECT_DEATH(chip.setCuVf(0, 5), "VF index out of range");
}

TEST(Boost, GrantedWhenFewCusBusyAndCool)
{
    Chip chip(fx8320ConfigWithBoost(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA()); // one busy CU
    chip.setCuVf(0, 6);                            // ask for max turbo
    EXPECT_EQ(chip.grantedVf(0), 6u);
}

TEST(Boost, DeniedWhenManyCusBusy)
{
    const auto cfg = fx8320ConfigWithBoost();
    Chip chip(cfg, 1);
    for (std::size_t cu = 0; cu < 4; ++cu)
        chip.setJob(cu * cfg.cores_per_cu,
                    ppep::workloads::makeBenchA());
    chip.setCuVf(0, 6);
    EXPECT_EQ(chip.grantedVf(0), cfg.vf_table.top());
}

TEST(Boost, DeniedWhenHot)
{
    const auto cfg = fx8320ConfigWithBoost();
    Chip chip(cfg, 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    chip.setCuVf(0, 6);
    chip.setTemperatureK(cfg.boost_temp_limit_k + 2.0);
    EXPECT_EQ(chip.grantedVf(0), cfg.vf_table.top());
}

TEST(Boost, PStateRequestsNeverClamped)
{
    const auto cfg = fx8320ConfigWithBoost();
    Chip chip(cfg, 1);
    for (std::size_t cu = 0; cu < 4; ++cu)
        chip.setJob(cu * cfg.cores_per_cu,
                    ppep::workloads::makeBenchA());
    chip.setTemperatureK(360.0);
    chip.setCuVf(0, 2);
    EXPECT_EQ(chip.grantedVf(0), 2u);
}

TEST(Boost, GrantedBoostRaisesThroughputAndPower)
{
    const auto run = [](std::size_t vf_request) {
        Chip chip(fx8320ConfigWithBoost(), 1);
        chip.setJob(0, ppep::workloads::makeBenchA());
        chip.setCuVf(0, vf_request);
        double inst = 0.0, power = 0.0;
        for (int i = 0; i < 20; ++i) {
            const auto &r = chip.tick();
            inst += r.truth.activity[0].instructions;
            power += r.truth.power.total;
        }
        return std::pair{inst, power};
    };
    const auto [i_base, p_base] = run(4); // VF5
    const auto [i_boost, p_boost] = run(6); // 4.0 GHz turbo
    EXPECT_NEAR(i_boost / i_base, 4.0 / 3.5, 0.02);
    EXPECT_GT(p_boost, p_base * 1.05);
}

TEST(Boost, ThermalThrottlingKicksInUnderSustainedLoad)
{
    // Boost from a warm start near the limit: the extra power heats the
    // die past boost_temp_limit_k, after which grants revert to VF5 —
    // exactly why the paper disables boost for controlled experiments.
    const auto cfg = fx8320ConfigWithBoost();
    Chip chip(cfg, 1);
    for (std::size_t core : {0u, 1u, 2u, 3u}) // both cores of 2 CUs
        chip.setJob(core, ppep::workloads::makeHeater());
    chip.setAllVf(6);
    chip.setTemperatureK(cfg.boost_temp_limit_k - 1.0);
    EXPECT_EQ(chip.grantedVf(0), 6u);
    chip.run(600); // 12 s of boosted heating
    EXPECT_EQ(chip.grantedVf(0), cfg.vf_table.top());
}

TEST(Boost, BoostDependsOnOtherCusActivity)
{
    // The same request flips between granted and denied as background
    // CUs wake up — the "unexpectedly entering a boost state" effect on
    // counters the paper guards against.
    const auto cfg = fx8320ConfigWithBoost();
    Chip chip(cfg, 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    chip.setCuVf(0, 5);
    EXPECT_EQ(chip.grantedVf(0), 5u);
    for (std::size_t cu = 1; cu < 4; ++cu)
        chip.setJob(cu * cfg.cores_per_cu,
                    ppep::workloads::makeBenchA());
    EXPECT_EQ(chip.grantedVf(0), cfg.vf_table.top());
    for (std::size_t cu = 1; cu < 4; ++cu)
        chip.clearJob(cu * cfg.cores_per_cu);
    EXPECT_EQ(chip.grantedVf(0), 5u);
}

} // namespace
