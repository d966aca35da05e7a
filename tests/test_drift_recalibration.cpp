/**
 * @file
 * Drift soak: long governed runs on slowly decaying hardware, proving
 * the full self-healing loop — divergence climbs, a refit triggers, the
 * hot swap lands at the next decision, the EWMA re-converges
 * under the clean threshold, and (when the drift outran recalibration)
 * the session re-promotes out of degraded mode. Also pins the fleet
 * determinism contract at soak length: refits must not make results
 * depend on the thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/recalibrate.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
using runtime::RecalibrationPolicy;
using runtime::Recalibrator;
using runtime::Session;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
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

/** Per-interval health trace for post-hoc soak assertions. */
class ProbeSink : public runtime::TelemetrySink
{
  public:
    void onInterval(const runtime::IntervalTelemetry &t) override
    {
        degraded.push_back(t.degraded);
        generation.push_back(t.model_generation);
        divergence.push_back(t.divergence_ewma_w);
    }

    std::vector<bool> degraded;
    std::vector<std::uint64_t> generation;
    std::vector<double> divergence;
};

RecalibrationPolicy
soakPolicy()
{
    RecalibrationPolicy p;
    // Heal before the demote line (15 W) and below the clean line
    // (8 W): a refit triggers, and its adoption restarts the EWMA,
    // while the EWMA is still under clean. Both window and cadence
    // must match the drift timescale: a refit fits the *average* of
    // its ring, so a window much longer than the ramp leaves ~half a
    // window of staleness behind after every swap, and a long cooldown
    // lets ~0.1 W of fresh divergence per interval pile up between
    // heals.
    p.recal_divergence_w = 6.0;
    p.ring_capacity = 96;
    p.cooldown_intervals = 64;
    return p;
}

Session
soakSession(double bias, double clamp, runtime::TelemetrySink &probe)
{
    sim::FaultPlan plan;
    plan.power_drift_bias = bias;
    plan.drift_clamp = clamp;
    return Session::builder(sim::fx8320Config())
        .seed(5)
        .trainingSeed(91)
        .trainingCombos(smallTrainingSet())
        .store(runtime::ModelStore(cacheDir()))
        .onePerCu({"EP", "CG", "458.sjeng", "EP"})
        .faults(plan)
        .recalibration(soakPolicy())
        .sink(probe)
        .build();
}

TEST(DriftSoak, TenThousandIntervalsHealAndReconverge)
{
    // Slow decay: the power model loses ~0.1% of accuracy per interval
    // until the drift clamps ~35% above nominal around interval 300.
    ProbeSink probe;
    auto session = soakSession(5e-5, 0.3, probe);
    ASSERT_EQ(session.drive(10000), 10000u);

    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_GE(rc->triggers(), 1u);
    EXPECT_GE(rc->accepted(), 1u);
    EXPECT_GE(rc->generation(), 1u);

    // Re-convergence: the refit models fit the decayed chip, so the
    // divergence EWMA ends under the clean threshold and the session
    // never had to degrade at all — healing beat demotion.
    const auto *mon = session.healthMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_FALSE(mon->degraded());
    EXPECT_LT(mon->divergenceEwma(), runtime::HealthMonitor::kCleanDivergenceW);
    EXPECT_EQ(mon->demotions(), 0u);
    EXPECT_GE(mon->modelSwaps(), 1u);

    // The final window runs entirely on a refit generation, clean.
    ASSERT_EQ(probe.degraded.size(), 10000u);
    for (std::size_t i = 9000; i < 10000; ++i) {
        EXPECT_FALSE(probe.degraded[i]) << "interval " << i;
        EXPECT_GE(probe.generation[i], 1u) << "interval " << i;
    }
    EXPECT_LT(probe.divergence.back(),
              runtime::HealthMonitor::kCleanDivergenceW);
}

TEST(DriftSoak, FastDriftDemotesThenHealsAndRepromotes)
{
    // Decay faster than the ring can fill: the EWMA blows through the
    // demote line before the first refit is even eligible, the session
    // parks on the safe policy, and recovery must come from the swap —
    // trigger on the held EWMA, adopt, reset, earn a clean streak under
    // the new generation, re-promote.
    ProbeSink probe;
    auto session = soakSession(2e-3, 0.5, probe);
    ASSERT_EQ(session.drive(2000), 2000u);

    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_GE(rc->accepted(), 1u);

    const auto *mon = session.healthMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_GE(mon->demotions(), 1u);
    EXPECT_GE(mon->repromotions(), 1u);
    EXPECT_GE(mon->modelSwaps(), 1u);
    EXPECT_FALSE(mon->degraded());
    EXPECT_LT(mon->divergenceEwma(), runtime::HealthMonitor::kCleanDivergenceW);

    // Once healed on the clamped (stationary) chip, it stays healed.
    ASSERT_EQ(probe.degraded.size(), 2000u);
    for (std::size_t i = 1500; i < 2000; ++i)
        EXPECT_FALSE(probe.degraded[i]) << "interval " << i;
}

TEST(DriftSoak, FleetSoakBitIdenticalAcrossThreadCounts)
{
    auto spec = [] {
        runtime::FleetSpec s;
        s.cfg = sim::fx8320Config();
        s.training_seed = 91;
        s.training_combos = smallTrainingSet();
        s.store.emplace(cacheDir());
        s.warmup = 1;
        s.intervals = 10000;
        s.default_recalibration = soakPolicy();
        sim::FaultPlan plan;
        plan.power_drift_bias = 5e-5;
        plan.drift_clamp = 0.3;
        static const std::vector<std::string> programs = {"EP", "CG"};
        for (std::size_t i = 0; i < 2; ++i) {
            runtime::FleetSessionSpec ss;
            ss.seed = 7 + i;
            ss.one_per_cu = {programs[i], "EP", "CG", "EP"};
            ss.faults = plan;
            s.sessions.push_back(std::move(ss));
        }
        return s;
    };

    runtime::Fleet serial(spec());
    const auto r1 = serial.run(1);
    runtime::Fleet threaded(spec());
    const auto r2 = threaded.run(2);
    ASSERT_EQ(r1.completed, 2u);
    ASSERT_EQ(r2.completed, 2u);
    bool any_refit = false;
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(r1.sessions[i].telemetry_digest,
                  r2.sessions[i].telemetry_digest)
            << "session " << i;
        EXPECT_EQ(r1.sessions[i].summary.model_generation,
                  r2.sessions[i].summary.model_generation);
        any_refit |= r1.sessions[i].summary.recal_accepted > 0;
    }
    EXPECT_TRUE(any_refit);
    // A soak session that healed ends under the clean threshold.
    for (const auto &s : r1.sessions) {
        if (s.summary.recal_accepted > 0) {
            EXPECT_LT(s.summary.final_divergence_ewma_w, 8.0);
        }
    }
}

} // namespace
