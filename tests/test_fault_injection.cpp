/**
 * @file
 * Deterministic fault-injection soak: a hardened Session governed for
 * thousands of intervals under an aggressive fault plan must never
 * surface a non-finite observable, must honour the degraded-mode cap
 * discipline, must replay bit-identically from the same seeds, and must
 * both demote and re-promote along the way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ppep/governor/iterative_capping.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

const std::vector<std::string> kMix = {"429.mcf", "458.sjeng",
                                       "416.gamess", "swaptions"};

/** Captures the per-interval degraded flag and fault-event count. */
class FlagSink : public runtime::TelemetrySink
{
  public:
    std::vector<bool> degraded;
    std::vector<std::size_t> fault_events;
    std::vector<double> predicted_w;

    void
    onInterval(const runtime::IntervalTelemetry &t) override
    {
        degraded.push_back(t.degraded);
        fault_events.push_back(t.health ? t.health->faultEvents() : 0);
        predicted_w.push_back(t.predicted_power_w);
    }
};

void
expectFiniteRecord(const trace::IntervalRecord &rec, std::size_t i)
{
    EXPECT_TRUE(std::isfinite(rec.sensor_power_w)) << "interval " << i;
    EXPECT_TRUE(std::isfinite(rec.diode_temp_k)) << "interval " << i;
    EXPECT_GT(rec.duration_s, 0.0) << "interval " << i;
    for (const auto &counts : rec.pmc)
        for (double v : counts) {
            ASSERT_TRUE(std::isfinite(v)) << "interval " << i;
            ASSERT_GE(v, 0.0) << "interval " << i;
        }
}

// The tentpole acceptance soak: >= 10k governed intervals under a plan
// that exercises every fault mechanism at once. ~33 min of simulated
// time; the loop itself is the test, the assertions run per interval.
TEST(FaultSoak, TenThousandIntervalsStaySane)
{
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    governor::IterativeCappingGovernor reactive(cfg);
    FlagSink flags;

    const auto plan = sim::FaultPlan::parse(
        "msr=0.08,wrap=30,saturate=0.002,mux=0.02,diode_spike=0.02,"
        "diode_stuck=0.002,diode_drop=0.01,sensor_spike=0.01,"
        "sensor_drop=0.02,vf_reject=0.03,vf_delay=0.03,jitter=0.1");
    auto session = runtime::Session::builder(cfg)
                       .seed(99)
                       .onePerCu(kMix)
                       .governor(reactive)
                       .schedule(governor::CapSchedule(
                           {{0, 110.0}, {3000, 55.0}, {6000, 110.0}}))
                       .faults(plan)
                       .sink(flags)
                       .build();

    const std::size_t n = 10000;
    const auto steps = session.run(n);
    ASSERT_EQ(steps.size(), n);
    const std::size_t top = cfg.vf_table.size() - 1;

    for (std::size_t i = 0; i < n; ++i) {
        expectFiniteRecord(steps[i].rec, i);
        // Predictions surfaced to telemetry are NaN (non-predictive
        // policy / degraded mode) or finite — never infinite.
        ASSERT_FALSE(std::isinf(flags.predicted_w[i]));
        // A degraded decision never selects boost for the next
        // interval (no VF faults can raise a request, only drop/delay
        // a lower one, so the applied state stays in the table).
        if (i + 1 < n && flags.degraded[i]) {
            for (std::size_t v : steps[i + 1].cu_vf)
                ASSERT_LE(v, top) << "interval " << i;
        }
    }

    // The plan is aggressive enough that the run visits the degraded
    // state and clean stretches long enough to leave it — both
    // transitions must fire, repeatedly.
    const auto *mon = session.healthMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_EQ(mon->intervalsObserved(), n);
    EXPECT_GT(mon->demotions(), 3u);
    EXPECT_GT(mon->repromotions(), 3u);
    EXPECT_GT(session.degradedGovernor()->degradedIntervals(), 0u);

    // Every mechanism in the plan actually fired.
    const auto &injected = session.sampler()->lastHealth().injected;
    EXPECT_GT(injected.msr_read_failures, 0u);
    EXPECT_GT(injected.pmc_slot_saturations, 0u);
    EXPECT_GT(injected.mux_dropped_ticks, 0u);
    EXPECT_GT(injected.diode_spikes, 0u);
    EXPECT_GT(injected.sensor_dropouts, 0u);
    EXPECT_GT(injected.vf_rejects, 0u);
    EXPECT_GT(injected.vf_delays, 0u);
    EXPECT_GT(injected.jittered_intervals, 0u);
    EXPECT_GT(session.sampler()->lastHealth().pmc_wrap_events, 0u);
}

// Degraded-mode cap discipline, provable interval by interval: with no
// VF-actuation faults in the plan, the applied VF equals the decision,
// so the safe policy's hold/step-down contract is directly checkable
// against the trace.
TEST(FaultSoak, DegradedDecisionsHoldOrStepDown)
{
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    governor::IterativeCappingGovernor reactive(cfg);
    FlagSink flags;

    const auto plan = sim::FaultPlan::parse(
        "msr=0.15,wrap=48,saturate=0.01,sensor_drop=0.05");
    const double cap = 70.0;
    auto session = runtime::Session::builder(cfg)
                       .seed(7)
                       .onePerCu(kMix)
                       .governor(reactive)
                       .schedule(governor::CapSchedule(cap))
                       .faults(plan)
                       .sink(flags)
                       .build();

    const std::size_t n = 2000;
    const auto steps = session.run(n);
    const std::size_t top = cfg.vf_table.size() - 1;
    const double guard = governor::DegradedModeGovernor::kCapGuard;

    std::size_t degraded_checked = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (!flags.degraded[i])
            continue;
        ++degraded_checked;
        const bool near_cap =
            steps[i].rec.sensor_power_w > cap * (1.0 - guard);
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu) {
            const std::size_t held =
                std::min(steps[i].cu_vf[cu], top);
            const std::size_t expect =
                near_cap ? (held > 0 ? held - 1 : 0) : held;
            ASSERT_EQ(steps[i + 1].cu_vf[cu], expect)
                << "interval " << i << " cu " << cu;
        }
    }
    EXPECT_GT(degraded_checked, 0u);
}

// Determinism: the full hardened stack (fault stream, sampler, health
// state machine, degraded decisions) replays bit-identically from the
// same seeds.
TEST(FaultSoak, IdenticalSeedsReplayBitIdentically)
{
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    const auto plan = sim::FaultPlan::parse(
        "msr=0.1,wrap=30,saturate=0.005,sensor_drop=0.03,"
        "vf_reject=0.05,jitter=0.15");

    auto once = [&](std::vector<bool> &degraded) {
        governor::IterativeCappingGovernor reactive(cfg);
        FlagSink flags;
        auto session = runtime::Session::builder(cfg)
                           .seed(42)
                           .onePerCu(kMix)
                           .governor(reactive)
                           .schedule(governor::CapSchedule(
                               {{0, 100.0}, {150, 60.0}}))
                           .faults(plan)
                           .faultSeed(2024)
                           .sink(flags)
                           .build();
        auto steps = session.run(300);
        degraded = flags.degraded;
        return steps;
    };

    std::vector<bool> da, db;
    const auto sa = once(da);
    const auto sb = once(db);
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(da, db);
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].cu_vf, sb[i].cu_vf) << "interval " << i;
        EXPECT_EQ(sa[i].rec.sensor_power_w, sb[i].rec.sensor_power_w)
            << "interval " << i;
        EXPECT_EQ(sa[i].rec.duration_s, sb[i].rec.duration_s)
            << "interval " << i;
    }
}

// The divergence-EWMA demotion path: in-window sensor spikes pass every
// per-sample guard (they are physically plausible readings), so the
// only defense is the predicted-vs-measured divergence tracked by the
// HealthMonitor against the PPEP model's forecasts.
TEST(FaultSoak, ModelDivergenceDemotesAPredictiveGovernor)
{
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    model::TrainedModels models = [&cfg] {
        model::Trainer trainer(cfg, 33);
        std::vector<const workloads::Combination *> training;
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() == 1 && training.size() < 10)
                training.push_back(&c);
        return trainer.trainAll(training);
    }();

    FlagSink flags;
    auto session =
        runtime::Session::builder(cfg)
            .seed(15)
            .onePerCu(kMix)
            .models(std::move(models))
            .governor(runtime::cappingGovernor())
            .schedule(governor::CapSchedule(90.0))
            .faults(sim::FaultPlan::parse(
                "sensor_spike=0.5,sensor_spike_w=400"))
            .sink(flags)
            .build();
    EXPECT_NE(session.policy().name().find("degraded-mode("),
              std::string::npos);

    session.run(60);
    const auto *mon = session.healthMonitor();
    // The spikes are accepted samples (inside the plausibility window),
    // so fault events stay rare; the demotion must have come from the
    // divergence EWMA.
    EXPECT_GE(mon->demotions(), 1u);
    EXPECT_GT(mon->divergenceEwma(),
              runtime::HealthMonitor::kCleanDivergenceW);
    EXPECT_GT(session.degradedGovernor()->degradedIntervals(), 0u);
}

} // namespace
