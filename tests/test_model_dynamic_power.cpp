/**
 * @file
 * Tests for the Eq. 3 dynamic power model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/model/dynamic_power_model.hpp"
#include "ppep/util/rng.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;

/** Rows generated from a known non-negative weight vector at V5. */
std::vector<DynTrainingRow>
syntheticRows(const std::array<double, sim::kNumPowerEvents> &truth,
              std::size_t n, double noise_sd, ppep::util::Rng &rng)
{
    std::vector<DynTrainingRow> rows;
    for (std::size_t r = 0; r < n; ++r) {
        DynTrainingRow row;
        double power = 0.0;
        for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i) {
            row.rates_per_s[i] = rng.uniform(0.0, 1e9);
            power += truth[i] * row.rates_per_s[i];
        }
        row.dynamic_power_w = power + rng.gaussian(0.0, noise_sd);
        rows.push_back(row);
    }
    return rows;
}

constexpr std::array<double, sim::kNumPowerEvents> kTruth{
    0.9e-9, 1.2e-9, 0.5e-9, 0.7e-9, 3.0e-9,
    0.3e-9, 8.0e-9, 6.0e-9, 0.1e-9};

TEST(DynModel, RecoversWeightsNoiseless)
{
    ppep::util::Rng rng(1);
    const auto rows = syntheticRows(kTruth, 500, 0.0, rng);
    const auto m = DynamicPowerModel::train(rows, 1.32, 2.0);
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_NEAR(m.weights()[i] / kTruth[i], 1.0, 1e-6) << i;
}

TEST(DynModel, RecoversWeightsUnderNoise)
{
    ppep::util::Rng rng(2);
    const auto rows = syntheticRows(kTruth, 4000, 0.5, rng);
    const auto m = DynamicPowerModel::train(rows, 1.32, 2.0);
    // Tolerance has an absolute floor: the smallest weights sit below
    // this noise level's identifiability limit at n = 4000.
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_NEAR(m.weights()[i], kTruth[i],
                    std::max(0.1 * kTruth[i], 5e-11))
            << i;
}

TEST(DynModel, WeightsNeverNegative)
{
    ppep::util::Rng rng(3);
    // Adversarial target: pure noise.
    std::vector<DynTrainingRow> rows;
    for (int r = 0; r < 200; ++r) {
        DynTrainingRow row;
        for (auto &v : row.rates_per_s)
            v = rng.uniform(0.0, 1e9);
        row.dynamic_power_w = rng.uniform(-20.0, 20.0);
        rows.push_back(row);
    }
    const auto m = DynamicPowerModel::train(rows, 1.32, 2.0);
    for (double w : m.weights())
        EXPECT_GE(w, 0.0);
}

TEST(DynModel, EstimateAtTrainingVoltageIsLinear)
{
    ppep::util::Rng rng(4);
    const auto rows = syntheticRows(kTruth, 500, 0.0, rng);
    const auto m = DynamicPowerModel::train(rows, 1.32, 2.3);
    std::array<double, sim::kNumPowerEvents> rates{};
    rates.fill(1e8);
    double expect = 0.0;
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        expect += kTruth[i] * 1e8;
    EXPECT_NEAR(m.estimate(rates, 1.32), expect, expect * 1e-5);
}

TEST(DynModel, VoltageScalingOnlyAffectsCoreEvents)
{
    ppep::util::Rng rng(5);
    const auto rows = syntheticRows(kTruth, 500, 0.0, rng);
    const double alpha = 2.3;
    const auto m = DynamicPowerModel::train(rows, 1.32, alpha);
    std::array<double, sim::kNumPowerEvents> core_only{};
    for (std::size_t i = 0; i < sim::kNumCorePowerEvents; ++i)
        core_only[i] = 1e8;
    std::array<double, sim::kNumPowerEvents> nb_only{};
    nb_only[7] = 1e8;
    nb_only[8] = 1e8;

    const double vscale = std::pow(0.888 / 1.32, alpha);
    EXPECT_NEAR(m.estimate(core_only, 0.888),
                m.estimate(core_only, 1.32) * vscale, 1e-9);
    // NB-proxy events (E8, E9) are not scaled: the NB keeps its VF.
    EXPECT_NEAR(m.estimate(nb_only, 0.888), m.estimate(nb_only, 1.32),
                1e-9);
}

TEST(DynModel, SplitPartsSumToEstimate)
{
    ppep::util::Rng rng(6);
    const auto rows = syntheticRows(kTruth, 500, 0.0, rng);
    const auto m = DynamicPowerModel::train(rows, 1.32, 2.0);
    std::array<double, sim::kNumPowerEvents> rates{};
    rates.fill(2e8);
    double core = 0.0, nb = 0.0;
    m.split(rates, 1.1, core, nb);
    EXPECT_NEAR(core + nb, m.estimate(rates, 1.1), 1e-12);
    EXPECT_GT(core, 0.0);
    EXPECT_GT(nb, 0.0);
}

TEST(DynModel, PowerEventRatesDividesByDuration)
{
    sim::EventVector ev{};
    for (std::size_t i = 0; i < sim::kNumEvents; ++i)
        ev[i] = 100.0 * static_cast<double>(i + 1);
    const auto rates = powerEventRates(ev, 0.2);
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_DOUBLE_EQ(rates[i], 500.0 * static_cast<double>(i + 1));
}

TEST(DynModel, PowerEventRatesSumsCores)
{
    std::vector<sim::EventVector> cores(3);
    for (auto &c : cores)
        for (std::size_t i = 0; i < sim::kNumEvents; ++i)
            c[i] = 10.0;
    const auto rates = powerEventRates(cores, 0.2);
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_DOUBLE_EQ(rates[i], 150.0);
}

TEST(DynModelDeath, TooFewRowsRejected)
{
    std::vector<DynTrainingRow> rows(3);
    EXPECT_DEATH(DynamicPowerModel::train(rows, 1.32, 2.0),
                 "training rows");
}

TEST(DynModelDeath, UntrainedEstimatePanics)
{
    DynamicPowerModel m;
    std::array<double, sim::kNumPowerEvents> rates{};
    EXPECT_DEATH(m.estimate(rates, 1.0), "not trained");
}

} // namespace
