/**
 * @file
 * Unit tests for the ground-truth power model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/sim/core_model.hpp"
#include "ppep/sim/hw_power_model.hpp"
#include "sized_results.hpp"

namespace {

using namespace ppep::sim;

struct Fixture
{
    ChipConfig cfg = fx8320Config();
    HwPowerModel model{cfg};
    std::vector<CoreActivity> acts;

    Fixture()
    {
        acts.assign(cfg.coreCount(), CoreActivity{});
    }

    std::vector<CorePowerInput>
    inputs(double voltage, double freq)
    {
        std::vector<CorePowerInput> in(cfg.coreCount());
        for (std::size_t c = 0; c < cfg.coreCount(); ++c) {
            in[c].activity = &acts[c];
            in[c].voltage = voltage;
            in[c].freq_ghz = freq;
        }
        return in;
    }

    PowerBreakdown
    compute(double voltage, double freq, bool pg_all = false,
            double temp = 320.0)
    {
        const std::vector<bool> gated(cfg.n_cus, pg_all);
        const std::vector<double> volts(cfg.n_cus, voltage);
        const std::vector<double> freqs(cfg.n_cus, freq);
        return ppep::test::computePower(model, inputs(voltage, freq),
                                        gated, pg_all, volts, freqs,
                                        cfg.nb.vf_hi, temp, 0.02);
    }

    /** Give core @p c a busy tick of realistically proportioned
     *  activity (IPC ~1.3 at 3.5 GHz over a 20 ms tick). */
    void
    makeBusy(std::size_t c, double scale = 1.0)
    {
        CoreActivity &a = acts[c];
        a.busy = true;
        a.instructions = 80e6 * scale;
        a.cycles = 62e6 * scale;
        const double i = a.instructions;
        a.events[eventIndex(Event::RetiredUop)] = 1.3 * i;
        a.events[eventIndex(Event::FpuPipeAssignment)] = 0.3 * i;
        a.events[eventIndex(Event::InstCacheFetch)] = 0.25 * i;
        a.events[eventIndex(Event::DataCacheAccess)] = 0.4 * i;
        a.events[eventIndex(Event::RequestToL2)] = 0.02 * i;
        a.events[eventIndex(Event::RetiredBranch)] = 0.15 * i;
        a.events[eventIndex(Event::RetiredMispBranch)] = 0.003 * i;
        a.events[eventIndex(Event::L2CacheMiss)] = 0.005 * i;
        a.events[eventIndex(Event::DispatchStall)] = 0.3 * i;
        a.events[eventIndex(Event::ClocksNotHalted)] = a.cycles;
        a.events[eventIndex(Event::RetiredInst)] = i;
        a.events[eventIndex(Event::MabWaitCycles)] = 0.1 * i;
        a.l3_accesses = 0.005 * i;
        a.dram_accesses = 0.002 * i;
    }
};

TEST(HwPower, BreakdownSumsToTotal)
{
    Fixture f;
    f.makeBusy(0);
    f.makeBusy(3);
    const auto p = f.compute(1.32, 3.5);
    EXPECT_NEAR(p.total,
                p.base + p.housekeeping + p.nb_static + p.nb_dynamic +
                    p.cuIdleTotal() + p.coreDynamicTotal(),
                1e-9);
}

TEST(HwPower, IdleChipHasNoDynamic)
{
    Fixture f;
    const auto p = f.compute(1.32, 3.5);
    EXPECT_DOUBLE_EQ(p.coreDynamicTotal(), 0.0);
    EXPECT_DOUBLE_EQ(p.nb_dynamic, 0.0);
    EXPECT_GT(p.total, 20.0); // statics remain
}

TEST(HwPower, FullLoadWithinTdpScale)
{
    // Eight CPU-heavy cores at the top state must land in a plausible
    // 125 W-class envelope: well above idle, at or below ~135 W.
    Fixture f;
    for (std::size_t c = 0; c < f.cfg.coreCount(); ++c)
        f.makeBusy(c);
    const auto p = f.compute(1.32, 3.5);
    EXPECT_GT(p.total, 80.0);
    EXPECT_LT(p.total, 175.0);
}

TEST(HwPower, DynamicScalesWithVoltageAlpha)
{
    Fixture f;
    f.makeBusy(0);
    const auto hi = f.compute(1.32, 3.5);
    const auto lo = f.compute(0.888, 3.5);
    const double expected =
        std::pow(0.888 / 1.32, f.cfg.power.alpha_true);
    EXPECT_NEAR(lo.coreDynamicTotal() / hi.coreDynamicTotal(), expected,
                1e-9);
}

TEST(HwPower, LeakageGrowsWithTemperature)
{
    Fixture f;
    const auto cold = f.compute(1.32, 3.5, false, 305.0);
    const auto warm = f.compute(1.32, 3.5, false, 335.0);
    EXPECT_GT(warm.cuIdleTotal(), cold.cuIdleTotal());
    EXPECT_GT(warm.nb_static, cold.nb_static);
    // Base power is temperature-independent.
    EXPECT_DOUBLE_EQ(warm.base, cold.base);
}

TEST(HwPower, LeakageGrowsWithVoltage)
{
    Fixture f;
    EXPECT_GT(f.model.cuIdlePower(1.32, 3.5, 320.0),
              f.model.cuIdlePower(0.888, 1.4, 320.0));
}

TEST(HwPower, GatingLeavesResidual)
{
    Fixture f;
    const auto on = f.compute(1.32, 3.5, false);
    const auto off = f.compute(1.32, 3.5, true);
    EXPECT_LT(off.cuIdleTotal(), on.cuIdleTotal());
    EXPECT_NEAR(off.cuIdleTotal(),
                on.cuIdleTotal() * f.cfg.power.pg_residual, 1e-9);
    EXPECT_NEAR(off.nb_static, on.nb_static * f.cfg.power.pg_residual,
                1e-9);
    // Fully gated chip: housekeeping stops, base persists.
    EXPECT_DOUBLE_EQ(off.housekeeping, 0.0);
    EXPECT_DOUBLE_EQ(off.base, f.cfg.power.base_power_w);
}

TEST(HwPower, ActivityFactorScalesCoreDynamic)
{
    Fixture f;
    f.makeBusy(0);
    auto in = f.inputs(1.32, 3.5);
    const std::vector<bool> gated(f.cfg.n_cus, false);
    const std::vector<double> volts(f.cfg.n_cus, 1.32);
    const std::vector<double> freqs(f.cfg.n_cus, 3.5);
    const auto nominal = ppep::test::computePower(
        f.model, in, gated, false, volts, freqs, f.cfg.nb.vf_hi, 320.0,
        0.02);
    in[0].activity_factor = 1.10;
    const auto hot = ppep::test::computePower(
        f.model, in, gated, false, volts, freqs, f.cfg.nb.vf_hi, 320.0,
        0.02);
    EXPECT_NEAR(hot.core_dynamic[0] / nominal.core_dynamic[0], 1.10,
                1e-9);
}

TEST(HwPower, NbDynamicTracksAccessCounts)
{
    Fixture f;
    f.makeBusy(0);
    const auto base = f.compute(1.32, 3.5);
    f.acts[0].l3_accesses *= 2.0;
    f.acts[0].dram_accesses *= 2.0;
    const auto doubled = f.compute(1.32, 3.5);
    EXPECT_NEAR(doubled.nb_dynamic / base.nb_dynamic, 2.0, 1e-9);
}

TEST(HwPower, NbDynamicQuadraticInNbVoltage)
{
    Fixture f;
    f.makeBusy(0);
    const std::vector<bool> gated(f.cfg.n_cus, false);
    const std::vector<double> volts(f.cfg.n_cus, 1.32);
    const std::vector<double> freqs(f.cfg.n_cus, 3.5);
    const auto hi = ppep::test::computePower(
        f.model, f.inputs(1.32, 3.5), gated, false, volts, freqs,
        f.cfg.nb.vf_hi, 320.0, 0.02);
    const auto lo = ppep::test::computePower(
        f.model, f.inputs(1.32, 3.5), gated, false, volts, freqs,
        f.cfg.nb.vf_lo, 320.0, 0.02);
    // The paper's what-if: 20% NB voltage drop -> -36% NB dynamic.
    EXPECT_NEAR(lo.nb_dynamic / hi.nb_dynamic, 0.64, 0.001);
}

TEST(HwPower, PhenomConfigProducesSaneIdle)
{
    const ChipConfig cfg = phenomIIConfig();
    HwPowerModel model(cfg);
    std::vector<CoreActivity> acts(cfg.coreCount());
    std::vector<CorePowerInput> in(cfg.coreCount());
    for (std::size_t c = 0; c < cfg.coreCount(); ++c) {
        in[c].activity = &acts[c];
        in[c].voltage = 1.35;
        in[c].freq_ghz = 3.2;
    }
    const std::vector<bool> gated(cfg.n_cus, false);
    const std::vector<double> volts(cfg.n_cus, 1.35);
    const std::vector<double> freqs(cfg.n_cus, 3.2);
    const auto p = ppep::test::computePower(model, in, gated, false, volts,
                                            freqs, cfg.nb.vf_hi, 320.0,
                                            0.02);
    EXPECT_GT(p.total, 15.0);
    EXPECT_LT(p.total, 70.0);
}

} // namespace
