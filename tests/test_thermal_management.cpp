/**
 * @file
 * Tests for the thermal-parameter estimator and the proactive thermal
 * cap governor (extensions), closed-loop against the simulator.
 */

#include <gtest/gtest.h>

#include "ppep/governor/thermal_cap.hpp"
#include "ppep/model/thermal_estimator.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;
namespace model = ppep::model;

const model::ThermalEstimate &
fitted()
{
    static const model::ThermalEstimate est = [] {
        model::Trainer trainer(sim::fx8320Config(), 17);
        return model::ThermalEstimator::estimate(trainer);
    }();
    return est;
}

TEST(ThermalEstimator, RecoversGroundTruthParameters)
{
    const auto cfg = sim::fx8320Config();
    const auto &est = fitted();
    EXPECT_NEAR(est.ambient_k, cfg.thermal.ambient_k, 1.5);
    EXPECT_NEAR(est.resistance_k_per_w / cfg.thermal.resistance_k_per_w,
                1.0, 0.10);
    // The cooling tail is not a pure exponential (idle power falls
    // with temperature, dragging the asymptote down), so the fitted
    // time constant carries a ~10% bias.
    EXPECT_NEAR(est.time_constant_s / cfg.thermal.time_constant_s, 1.0,
                0.15);
}

TEST(ThermalEstimator, SteadyStatePredictionMatchesSimulator)
{
    const auto cfg = sim::fx8320Config();
    const auto &est = fitted();
    // Run a moderate load to thermal equilibrium and compare.
    sim::Chip chip(cfg, 18);
    for (std::size_t c = 0; c < 4; ++c)
        chip.setJob(c, workloads::Suite::byName("LU").makeLoopingJob());
    chip.run(200 * 10); // 40 s >> tau? (tau 45 s) — keep going
    chip.run(400 * 10); // total 120 s ~ 2.7 tau
    double power = 0.0;
    const int n = 20;
    for (int i = 0; i < n; ++i)
        power += chip.tick().truth.power.total;
    power /= n;
    EXPECT_NEAR(est.steadyState(power), chip.temperatureK(), 3.0);
}

TEST(ThermalEstimator, PowerBudgetInvertsSteadyState)
{
    const auto &est = fitted();
    const double cap = 330.0;
    const double budget = est.powerBudgetFor(cap);
    EXPECT_NEAR(est.steadyState(budget), cap, 1e-9);
}

TEST(ThermalEstimatorDeath, TooShortTraceRejected)
{
    model::CoolingTrace tiny;
    tiny.cool_start = 5;
    tiny.power_curve_w.assign(10, 30.0);
    tiny.temp_curve_k.assign(10, 320.0);
    EXPECT_DEATH(model::ThermalEstimator::fit(tiny, 0.2),
                 "too short");
}

struct GovernorFixture
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;

    GovernorFixture()
    {
        model::Trainer trainer(cfg, 19);
        std::vector<const workloads::Combination *> training;
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() == 1 && training.size() < 12)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }

    static const GovernorFixture &
    get()
    {
        static const GovernorFixture f;
        return f;
    }
};

TEST(ThermalCapGovernor, HoldsTemperatureUnderCap)
{
    // Full 8-core load would settle near 340 K unmanaged; a 328 K cap
    // must be honoured proactively (diode never crosses cap + slack).
    const auto &f = GovernorFixture::get();
    const model::Ppep ppep(f.cfg, f.models.chip, f.models.pg);
    const double cap = 328.0;
    governor::ThermalCapGovernor gov(f.cfg, ppep, fitted(), cap, 1.0);

    sim::Chip chip(f.cfg, 20);
    for (std::size_t c = 0; c < 8; ++c)
        chip.setJob(c,
                    workloads::Suite::byName("EP").makeLoopingJob());
    governor::GovernorLoop loop(chip, gov);
    // 150 intervals = 30 s; with proactive capping the trajectory
    // asymptotes below the cap instead of overshooting.
    const auto steps =
        loop.run(150, governor::CapSchedule::unlimited());
    for (const auto &s : steps)
        EXPECT_LE(s.rec.diode_temp_k, cap + 1.0);
}

TEST(ThermalCapGovernor, UnmanagedLoadWouldExceedCap)
{
    // Sanity for the test above: the same load without management runs
    // hotter than the cap.
    const auto &f = GovernorFixture::get();
    sim::Chip chip(f.cfg, 20);
    for (std::size_t c = 0; c < 8; ++c)
        chip.setJob(c,
                    workloads::Suite::byName("EP").makeLoopingJob());
    chip.run(150 * 10);
    EXPECT_GT(chip.temperatureK(), 329.0);
}

TEST(ThermalCapGovernor, GenerousCapRunsFlatOut)
{
    const auto &f = GovernorFixture::get();
    const model::Ppep ppep(f.cfg, f.models.chip, f.models.pg);
    governor::ThermalCapGovernor gov(f.cfg, ppep, fitted(), 380.0);

    sim::Chip chip(f.cfg, 21);
    chip.setJob(0, workloads::Suite::byName("EP").makeLoopingJob());
    governor::GovernorLoop loop(chip, gov);
    const auto steps =
        loop.run(5, governor::CapSchedule::unlimited());
    EXPECT_EQ(steps.back().cu_vf[0], f.cfg.vf_table.top());
}

TEST(ThermalCapGovernor, RespectsTighterPowerCap)
{
    // An explicit power cap below the thermal budget wins.
    const auto &f = GovernorFixture::get();
    const model::Ppep ppep(f.cfg, f.models.chip, f.models.pg);
    governor::ThermalCapGovernor gov(f.cfg, ppep, fitted(), 380.0);

    sim::Chip chip(f.cfg, 22);
    for (std::size_t c = 0; c < 8; ++c)
        chip.setJob(c,
                    workloads::Suite::byName("EP").makeLoopingJob());
    governor::GovernorLoop loop(chip, gov);
    const auto steps = loop.run(10, governor::CapSchedule(45.0));
    for (std::size_t i = 2; i < steps.size(); ++i)
        EXPECT_LE(steps[i].rec.sensor_power_w, 45.0 * 1.06);
}

TEST(ThermalCapGovernorDeath, CapBelowAmbientRejected)
{
    const auto &f = GovernorFixture::get();
    const model::Ppep ppep(f.cfg, f.models.chip, f.models.pg);
    EXPECT_DEATH(
        governor::ThermalCapGovernor(f.cfg, ppep, fitted(), 290.0),
        "below ambient");
}

} // namespace
