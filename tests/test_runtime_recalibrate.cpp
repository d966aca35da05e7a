/**
 * @file
 * Tests for drift-triggered online recalibration: policy validation,
 * the trigger/refit/adopt lifecycle on a governed session, the
 * acceptance gate's rejection path, lineage journalling through the
 * ModelStore, and the fleet determinism contract across thread counts
 * with refits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>

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

/** Pid-keyed cache dir: train once per test process, load thereafter. */
const std::string &
cacheDir()
{
    static const std::string dir = [] {
        const std::string d = test::tempPath("recal_cache");
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
}

/** A refit-friendly policy: small ring, quick cooldown. */
RecalibrationPolicy
tightPolicy()
{
    RecalibrationPolicy p;
    p.recal_divergence_w = 6.0;
    p.ring_capacity = 64;
    p.min_ring_fill = 32;
    p.cooldown_intervals = 16;
    p.min_improvement = 0.05;
    return p;
}

sim::FaultPlan
driftPlan(double bias, double clamp = 0.4)
{
    sim::FaultPlan plan;
    plan.power_drift_bias = bias;
    plan.drift_clamp = clamp;
    return plan;
}

Session
driftingSession(const RecalibrationPolicy &pol,
                const sim::FaultPlan &plan, std::uint64_t seed = 5)
{
    return Session::builder(sim::fx8320Config())
        .seed(seed)
        .trainingSeed(91)
        .trainingCombos(smallTrainingSet())
        .store(runtime::ModelStore(cacheDir()))
        .onePerCu({"EP", "CG", "458.sjeng", "EP"})
        .faults(plan)
        .recalibration(pol)
        .build();
}

// --- policy validation --------------------------------------------------

TEST(RecalibratorDeath, DegeneratePoliciesAreFatal)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    const model::TrainedModels untrained;
    const runtime::GovernorRebuilder rebuild =
        [](const sim::ChipConfig &, const model::TrainedModels &,
           const model::Ppep &) {
            return std::unique_ptr<governor::Governor>();
        };

    RecalibrationPolicy k1;
    k1.kfold_k = 1;
    EXPECT_DEATH(Recalibrator(cfg, untrained, rebuild, 1, k1),
                 "k >= 2");

    RecalibrationPolicy shallow;
    shallow.ring_capacity = 8;
    shallow.min_ring_fill = 16;
    EXPECT_DEATH(Recalibrator(cfg, untrained, rebuild, 1, shallow),
                 "ring capacity");

    RecalibrationPolicy zero;
    zero.recal_divergence_w = 0.0;
    EXPECT_DEATH(Recalibrator(cfg, untrained, rebuild, 1, zero),
                 "threshold");

    RecalibrationPolicy greedy;
    greedy.min_improvement = 1.0;
    EXPECT_DEATH(Recalibrator(cfg, untrained, rebuild, 1, greedy),
                 "min_improvement");
}

// --- session lifecycle --------------------------------------------------

TEST(Recalibrate, PlainHardenedSessionNeverTriggers)
{
    // An accurate model on healthy hardware: the EWMA stays far below
    // the trigger threshold, so the recalibrator must stay idle.
    auto session =
        driftingSession(tightPolicy(), sim::FaultPlan{} /* no faults */);
    session.drive(60);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->triggers(), 0u);
    EXPECT_EQ(rc->generation(), 0u);
    EXPECT_EQ(rc->current(), nullptr);
    EXPECT_GT(rc->ringFill(), 0u);
}

TEST(Recalibrate, DriftTriggersRefitAndHotSwap)
{
    auto session = driftingSession(tightPolicy(), driftPlan(5e-4));
    session.drive(300);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_GE(rc->triggers(), 1u);
    EXPECT_GE(rc->accepted(), 1u);
    EXPECT_GE(rc->generation(), 1u);
    ASSERT_NE(rc->current(), nullptr);
    EXPECT_EQ(rc->current()->record.generation, rc->generation());

    // The swap restarted divergence tracking and the refit model fits
    // the drifted chip: the EWMA must be back under the clean line.
    const auto *mon = session.healthMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_GE(mon->modelSwaps(), 1u);
    EXPECT_LT(mon->divergenceEwma(), runtime::HealthMonitor::kCleanDivergenceW);
    EXPECT_FALSE(mon->degraded());
}

TEST(Recalibrate, LineageChainsParentDigests)
{
    auto session = driftingSession(tightPolicy(), driftPlan(5e-4));
    session.drive(300);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    ASSERT_GE(rc->lineage().size(), 1u);
    std::uint64_t expected_gen = 0;
    std::uint64_t parent = rc->lineage().front().parent_digest;
    for (const auto &rec : rc->lineage()) {
        EXPECT_EQ(rec.parent_digest, parent);
        EXPECT_GT(rec.ring_rows, 0u);
        EXPECT_GT(rec.trigger_ewma_w, 0.0);
        if (rec.accepted) {
            EXPECT_STREQ(rec.verdict, "adopted");
            EXPECT_EQ(rec.generation, expected_gen + 1);
            ++expected_gen;
            parent = rec.digest; // the chain advances only on adoption
        } else {
            EXPECT_NE(rec.verdict[0], '\0');
        }
    }
    EXPECT_EQ(expected_gen, rc->generation());
}

/** Records the model generation each interval's telemetry reports. */
class GenerationProbe : public runtime::TelemetrySink
{
  public:
    void onInterval(const runtime::IntervalTelemetry &t) override
    {
        if (generation.size() <= t.index)
            generation.resize(t.index + 1);
        generation[t.index] = t.model_generation;
    }

    std::vector<std::uint64_t> generation;
};

TEST(Recalibrate, AdoptionGovernsTheNextInterval)
{
    // The refit resolves inside the interval that triggers it: that
    // interval still reports the generation that decided it, and an
    // accepted candidate governs from the very next interval on. A
    // rejected one changes nothing.
    GenerationProbe probe;
    auto session = Session::builder(sim::fx8320Config())
                       .seed(1)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .store(runtime::ModelStore(cacheDir()))
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(driftPlan(5e-4))
                       .recalibration(tightPolicy())
                       .sink(probe)
                       .build();
    session.drive(300);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    // Both verdict paths must run, or the test checks less than it
    // claims to.
    ASSERT_GE(rc->accepted(), 2u);
    ASSERT_GE(rc->rejected(), 1u);
    const auto &gen = probe.generation;
    for (const auto &r : rc->lineage()) {
        const std::size_t at = r.trigger_interval;
        ASSERT_LT(at + 1, gen.size());
        if (r.accepted) {
            EXPECT_EQ(gen[at], r.generation - 1) << "interval " << at;
            EXPECT_EQ(gen[at + 1], r.generation) << "interval " << at;
        } else {
            EXPECT_EQ(gen[at + 1], gen[at]) << "interval " << at;
        }
    }
}

TEST(Recalibrate, MaxGenerationsCapsAdoption)
{
    RecalibrationPolicy pol = tightPolicy();
    pol.max_generations = 1;
    auto session = driftingSession(pol, driftPlan(5e-4));
    session.drive(300);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_LE(rc->accepted(), 1u);
    EXPECT_LE(rc->generation(), 1u);
}

TEST(Recalibrate, UnbeatableIncumbentIsRejected)
{
    // No drift: the offline model is already the best linear fit of
    // this chip. A trigger forced by a microscopic threshold plus an
    // impossible improvement requirement must take the rejection path
    // and leave generation 0 governing.
    RecalibrationPolicy pol;
    pol.recal_divergence_w = 0.05;
    pol.ring_capacity = 16;
    pol.min_ring_fill = 8;
    pol.kfold_k = 2;
    pol.cooldown_intervals = 100000;
    pol.min_improvement = 0.9;
    auto session = driftingSession(pol, sim::FaultPlan{});
    session.drive(60);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    ASSERT_EQ(rc->triggers(), 1u);
    EXPECT_EQ(rc->accepted(), 0u);
    EXPECT_EQ(rc->rejected(), 1u);
    EXPECT_EQ(rc->generation(), 0u);
    EXPECT_EQ(rc->current(), nullptr);
    ASSERT_EQ(rc->lineage().size(), 1u);
    EXPECT_STREQ(rc->lineage().front().verdict,
                 "worse-than-incumbent");
    const auto *mon = session.healthMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_EQ(mon->modelSwaps(), 0u); // rejected refits swap nothing
}

TEST(RecalibrateDeath, ExternalGovernorIsIncompatible)
{
    class Null : public governor::Governor
    {
        std::vector<std::size_t>
        decide(const trace::IntervalRecord &rec, double) override
        {
            return rec.cu_vf;
        }
        std::string name() const override { return "null"; }
    } null_gov;
    EXPECT_DEATH(Session::builder(sim::fx8320Config())
                     .trainingSeed(91)
                     .trainingCombos(smallTrainingSet())
                     .store(runtime::ModelStore(cacheDir()))
                     .onePerCu({"EP"})
                     .governor(null_gov)
                     .recalibration(RecalibrationPolicy{})
                     .build(),
                 "external policy");
}

// --- lineage journal ----------------------------------------------------

TEST(Recalibrate, AdoptionsAreJournalledToTheStore)
{
    const std::string dir = test::tempPath("recal_lineage");
    std::filesystem::remove_all(dir);
    runtime::ModelStore store(dir);
    auto session = Session::builder(sim::fx8320Config())
                       .seed(5)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .store(store)
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(driftPlan(5e-4))
                       .recalibration(tightPolicy())
                       .build();
    session.drive(300);
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    ASSERT_GE(rc->accepted(), 1u);

    const auto lines = store.lineageLines();
    ASSERT_EQ(lines.size(), rc->accepted());
    EXPECT_NE(lines.front().find("gen=1"), std::string::npos);
    EXPECT_NE(lines.front().find("reason=drift-refit"),
              std::string::npos);
    EXPECT_NE(lines.front().find(sim::fx8320Config().name),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- fleet determinism with refits ---------------------------------------

runtime::FleetSpec
recalFleetSpec()
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    runtime::FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.store.emplace(cacheDir());
    spec.warmup = 1;
    spec.intervals = 220;
    spec.default_recalibration = tightPolicy();
    for (std::size_t i = 0; i < 4; ++i) {
        runtime::FleetSessionSpec ss;
        ss.seed = 7 + i;
        ss.one_per_cu = {programs[i % programs.size()], "EP", "CG",
                         "EP"};
        ss.faults = driftPlan(5e-4);
        spec.sessions.push_back(std::move(ss));
    }
    return spec;
}

TEST(Recalibrate, FleetBitIdenticalAtAnyThreadCount)
{
    // A refit runs and resolves inside the interval that triggers it,
    // on the session's own thread, so the telemetry digests (which fold
    // in model generation and the recal counters) cannot depend on the
    // fleet's thread count.
    runtime::Fleet serial(recalFleetSpec());
    const auto r1 = serial.run(1);
    runtime::Fleet parallel(recalFleetSpec());
    const auto r4 = parallel.run(4);
    ASSERT_EQ(r1.completed, 4u);
    ASSERT_EQ(r4.completed, 4u);
    bool any_refit = false;
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(r1.sessions[i].telemetry_digest,
                  r4.sessions[i].telemetry_digest)
            << "session " << i;
        any_refit |= r1.sessions[i].summary.recal_accepted > 0;
        EXPECT_EQ(r1.sessions[i].summary.recal_triggers,
                  r4.sessions[i].summary.recal_triggers);
    }
    // The contract is only interesting if refits actually happened.
    EXPECT_TRUE(any_refit);
}

// --- telemetry surface --------------------------------------------------

TEST(Recalibrate, TelemetryCarriesGenerationAndCounters)
{
    runtime::SummarySink summary;
    auto session = Session::builder(sim::fx8320Config())
                       .seed(5)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .store(runtime::ModelStore(cacheDir()))
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(driftPlan(5e-4))
                       .recalibration(tightPolicy())
                       .sink(summary)
                       .build();
    session.drive(300);
    const auto s = summary.summary();
    const Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(s.model_generation, rc->generation());
    EXPECT_EQ(s.recal_triggers, rc->triggers());
    EXPECT_EQ(s.recal_accepted, rc->accepted());
    EXPECT_EQ(s.recal_rejected, rc->rejected());
    EXPECT_TRUE(std::isfinite(s.final_divergence_ewma_w));
    ASSERT_GE(rc->accepted(), 1u);
}

} // namespace
