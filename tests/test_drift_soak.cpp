/**
 * @file
 * Drift soak: long governed runs on hardware whose power, or whose
 * power sensor, slowly drifts away from what the offline-trained
 * models learned. The arbitrated fleet is held to the outcome that
 * matters — measured fleet power stays within its budget — and to the
 * determinism contract at soak length; a drift too fast for any model
 * must demote the hardened session to its safe policy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;

constexpr std::size_t kIntervals = 1500;
constexpr double kBudgetW = 280.0;
constexpr std::uint64_t kSeeds[] = {1, 7, 2014};

/** The CLI's program mixes, one per session (`ppep fleet`). */
const std::vector<std::vector<std::string>> kMixes = {
    {"429.mcf", "458.sjeng"},
    {"416.gamess", "swaptions"},
    {"EP", "CG"},
    {"458.sjeng", "416.gamess"},
};

/** The CLI's `--quick` training set. */
std::vector<const workloads::Combination *>
quickTrainingSet()
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < 10)
            out.push_back(&c);
    return out;
}

const std::string &
cacheDir()
{
    static const std::string dir = [] {
        const std::string d = test::tempPath("drift_cache");
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
}

/**
 * `ppep fleet --fleet 4 --intervals 1500 --quick --budget 280
 * --seed SEED --faults FAULTS`: four FX-8320 sessions in arbitrated
 * lockstep under one 280 W budget.
 */
runtime::FleetSpec
cliFleet(const std::string &faults, std::uint64_t seed)
{
    runtime::FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = seed;
    spec.training_combos = quickTrainingSet();
    spec.store.emplace(cacheDir());
    spec.warmup = 2;
    spec.intervals = kIntervals;
    const sim::FaultPlan plan = sim::FaultPlan::parse(faults);
    for (std::size_t i = 0; i < kMixes.size(); ++i) {
        runtime::FleetSessionSpec ss;
        ss.seed = seed + 100 + i;
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = kMixes[i];
        ss.faults = plan;
        spec.sessions.push_back(std::move(ss));
    }
    runtime::ArbiterSpec arbiter;
    arbiter.budget = governor::CapSchedule(kBudgetW);
    spec.arbiter = std::move(arbiter);
    return spec;
}

TEST(DriftSoak, ArbitratedFleetHoldsItsBudget)
{
    // True power ages by up to e^0.4 = 1.49x with the sensor still
    // calibrated, or the sensor reads up to 1.49x high. Either way the
    // models' predictions drift off, the sessions demote, and the
    // measured power the arbiter and the safe policy act on must keep
    // the fleet within its budget.
    for (const char *faults : {"power_drift_bias=5e-4,drift_clamp=0.4",
                               "sensor_drift_bias=5e-4,drift_clamp=0.4"}) {
        for (const std::uint64_t seed : kSeeds) {
            SCOPED_TRACE(std::string(faults) + " seed " +
                         std::to_string(seed));
            runtime::Fleet serial(cliFleet(faults, seed));
            const auto r1 = serial.run(1);
            runtime::Fleet threaded(cliFleet(faults, seed));
            const auto r3 = threaded.run(3);
            ASSERT_EQ(r1.completed, kMixes.size());
            ASSERT_EQ(r3.completed, kMixes.size());
            ASSERT_EQ(r1.arbiter.intervals, kIntervals);

            EXPECT_LE(r1.arbiter.violation_intervals, kIntervals / 50)
                << "measured fleet power over " << kBudgetW
                << " W in more than 2% of intervals";
            EXPECT_EQ(r1.arbiter.violation_intervals,
                      r3.arbiter.violation_intervals);
            for (std::size_t i = 0; i < kMixes.size(); ++i)
                EXPECT_EQ(r1.sessions[i].telemetry_digest,
                          r3.sessions[i].telemetry_digest)
                    << "session " << i;
        }
    }
}

TEST(DriftSoak, FastDriftDemotes)
{
    // Power ages ~0.2% per interval up to e^0.5 = 1.65x: the divergence
    // EWMA must cross the demote line and park the session on the safe
    // policy.
    sim::FaultPlan plan;
    plan.power_drift_bias = 2e-3;
    plan.drift_clamp = 0.5;
    for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto session = runtime::Session::builder(sim::fx8320Config())
                           .seed(seed + 100)
                           .trainingSeed(seed)
                           .trainingCombos(quickTrainingSet())
                           .store(runtime::ModelStore(cacheDir()))
                           .onePerCu(kMixes.front())
                           .faults(plan)
                           .build();
        ASSERT_EQ(session.drive(kIntervals), kIntervals);
        const auto *mon = session.healthMonitor();
        ASSERT_NE(mon, nullptr);
        EXPECT_GE(mon->demotions(), 1u);
        EXPECT_GT(session.degradedGovernor()->degradedIntervals(), 0u);
    }
}

} // namespace
