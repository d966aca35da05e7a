/**
 * @file
 * Multi-tenant attribution tests: spec validation, the Eq. 7/8
 * ownership split of the idle decomposition, the all-idle-tenant
 * boundary condition, per-core attribution (one tenant per core)
 * tracking the measured sensor, reconciliation with the independently
 * computed chip total at 1e-9 W (deterministic, 10k-interval randomized
 * soak, and from many threads sharing one attributor), plus the session
 * integration that lands attribution in the telemetry stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include "ppep/model/trainer.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;
using runtime::TenantAttribution;
using runtime::TenantAttributor;
using runtime::TenantJob;
using runtime::TenantSpec;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

/** Trained FX-8320 stack shared by every test in this binary. */
struct Stack
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    Stack()
    {
        model::Trainer trainer(cfg, 91);
        models = trainer.trainAll(smallTrainingSet());
    }
};

const Stack &
stack()
{
    static const Stack s;
    return s;
}

/**
 * FX-8320 stack for the sensor-tracking checks. Mixes single and
 * multi-instance combinations: the Eq. 3 weights must see NB
 * contention during training or the E9 (stall) weight misprices
 * heavily contended workloads.
 */
struct SensorStack
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    SensorStack()
    {
        model::Trainer trainer(cfg, 77);
        std::vector<const workloads::Combination *> training;
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() == 1 && training.size() < 10)
                training.push_back(&c);
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() >= 3 && training.size() < 20)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }
};

const SensorStack &
sensorStack()
{
    static const SensorStack s;
    return s;
}

/** One tenant per core of the sensor stack's chip. */
TenantAttributor
perCoreAttributor(const SensorStack &s)
{
    std::vector<TenantSpec> specs;
    for (std::size_t c = 0; c < s.cfg.coreCount(); ++c)
        specs.push_back({"core" + std::to_string(c), {c}, {}});
    return TenantAttributor(s.cfg, s.models.dynamic, s.models.pg, specs);
}

/** One measured interval of @p copies of @p program on the simulator. */
trace::IntervalRecord
measure(const SensorStack &s, const std::string &program,
        std::size_t copies, bool pg)
{
    sim::Chip chip(s.cfg, 55);
    chip.setPowerGatingEnabled(pg);
    workloads::launch(chip, workloads::replicate(program, copies), true);
    trace::Collector col(chip);
    col.collect(3);
    return col.collectInterval();
}

/** alpha owns CUs 0-1 (cores 0-3), beta owns CUs 2-3 (cores 4-7). */
std::vector<TenantSpec>
twoTenants()
{
    return {{"alpha", {0, 1, 2, 3}, {}}, {"beta", {4, 5, 6, 7}, {}}};
}

/** A synthetic interval: @p busy_cores run, the rest are fully idle. */
trace::IntervalRecord
makeRecord(const sim::ChipConfig &cfg,
           const std::vector<std::size_t> &busy_cores, std::size_t vf)
{
    trace::IntervalRecord rec;
    rec.duration_s = 0.2;
    rec.pmc.resize(cfg.coreCount());
    rec.cu_vf.assign(cfg.n_cus, vf);
    for (const std::size_t c : busy_cores) {
        for (std::size_t e = 0; e < sim::kNumPowerEvents; ++e)
            rec.pmc[c][e] = 1e7 * static_cast<double>(e + 1);
        rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] = 2.5e8;
    }
    return rec;
}

/** |per-tenant totals + unattributed - chip total| for one result. */
double
reconciliationError(const TenantAttribution &a)
{
    double sum = a.unattributed_w;
    for (const double w : a.total_w)
        sum += w;
    return std::fabs(sum - a.chip_total_w);
}

/** Sum of the per-tenant totals. */
double
tenantSum(const TenantAttribution &a)
{
    double sum = 0.0;
    for (const double w : a.total_w)
        sum += w;
    return sum;
}

TEST(TenantValidation, RejectsBadSpecs)
{
    const auto &s = stack();
    const auto &dyn = s.models.dynamic;
    const auto &pg = s.models.pg;

    const std::vector<TenantSpec> empty;
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, empty),
                 "must not be empty");

    const std::vector<TenantSpec> overlap = {{"a", {0, 1}, {}},
                                             {"b", {1, 2}, {}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, overlap),
                 "claimed by both");

    const std::vector<TenantSpec> out_of_range = {{"a", {99}, {}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, out_of_range),
                 "has only");

    const std::vector<TenantSpec> bad_name = {{"no spaces", {0}, {}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, bad_name),
                 "A-Za-z0-9_-");

    const std::vector<TenantSpec> dup = {{"a", {0}, {}}, {"a", {1}, {}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, dup), "duplicate");

    const std::vector<TenantSpec> coreless = {{"a", {}, {}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, coreless),
                 "owns no cores");

    const std::vector<TenantSpec> foreign_job = {
        {"a", {0}, {{5, "EP", true}}}};
    EXPECT_DEATH(TenantAttributor(s.cfg, dyn, pg, foreign_job),
                 "does not own");
}

TEST(TenantValidation, RejectsPlatformWithoutPgSweep)
{
    // Phenom II has no power-gating sweep, so its PgIdleModel is
    // untrained and the Fig. 4 decomposition the split relies on does
    // not exist.
    const auto cfg = sim::phenomIIConfig();
    model::Trainer trainer(cfg, 91);
    const auto models = trainer.trainAll(smallTrainingSet(4));
    const std::vector<TenantSpec> specs = {{"a", {0}, {}},
                                           {"b", {1}, {}}};
    EXPECT_DEATH(
        TenantAttributor(cfg, models.dynamic, models.pg, specs),
        "no power-gating sweep");
}

TEST(TenantAttribution, ReconcilesWithChipTotalDeterministic)
{
    const auto &s = stack();
    const TenantAttributor attr(s.cfg, s.models.dynamic, s.models.pg,
                                twoTenants());
    auto out = attr.makeAttribution();

    for (const bool pg : {false, true}) {
        for (const std::size_t vf : {0u, 2u, 4u}) {
            const auto rec = makeRecord(s.cfg, {0, 1, 5}, vf);
            attr.attributeInto(rec, pg, out);
            EXPECT_LE(reconciliationError(out), 1e-9)
                << "pg=" << pg << " vf=" << vf;
            EXPECT_GT(out.chip_total_w, 0.0);
            for (std::size_t t = 0; t < 2; ++t) {
                EXPECT_GE(out.dynamic_w[t], 0.0);
                EXPECT_GE(out.idle_w[t], 0.0);
            }
            // Every core is owned here: nothing may leak.
            EXPECT_EQ(out.unattributed_w, 0.0);
        }
    }
}

TEST(TenantAttribution, AllIdleTenantChargedOnlyPgIdleShare)
{
    const auto &s = stack();
    const TenantAttributor attr(s.cfg, s.models.dynamic, s.models.pg,
                                twoTenants());
    auto out = attr.makeAttribution();
    const auto &pg = s.models.pg;
    const double n = static_cast<double>(s.cfg.coreCount());

    // beta's cores (4-7) run nothing; alpha keeps the chip awake.
    const std::size_t vf = 2;
    const auto rec = makeRecord(s.cfg, {0, 1, 2, 3}, vf);

    // PG on: beta's CUs are gated, so beta pays only its ownership
    // share of the base/NB floor — its nonzero pg-idle share, and
    // nothing else.
    attr.attributeInto(rec, true, out);
    EXPECT_EQ(out.dynamic_w[1], 0.0);
    const double floor_share =
        4.0 * (pg.pBaseAvg() + pg.pNbAvg()) / n;
    EXPECT_NEAR(out.idle_w[1], floor_share, 1e-12);
    EXPECT_GT(out.idle_w[1], 0.0);
    EXPECT_LE(reconciliationError(out), 1e-9);

    // PG off: beta's two CUs idle at their VF on top of the floor.
    attr.attributeInto(rec, false, out);
    EXPECT_EQ(out.dynamic_w[1], 0.0);
    const double cu_idle = 2.0 * pg.components(vf).p_cu;
    EXPECT_NEAR(out.idle_w[1], floor_share + cu_idle, 1e-12);
    EXPECT_LE(reconciliationError(out), 1e-9);
}

TEST(PerCorePower, SharesSumNearSensorUnderPg)
{
    // Attributed power must track the measured chip power: per-core
    // shares add up to reality. The tolerance widens with contention:
    // the E9 NB proxy overprices heavily contended memory-bound runs
    // (the same error class the paper's Fig. 2a shows for
    // multi-programmed combinations).
    const auto &s = sensorStack();
    const auto attr = perCoreAttributor(s);
    auto out = attr.makeAttribution();
    for (const std::size_t copies : {1u, 2u, 4u}) {
        const auto rec = measure(s, "433.milc", copies, true);
        attr.attributeInto(rec, true, out);
        EXPECT_EQ(out.unattributed_w, 0.0);
        EXPECT_NEAR(tenantSum(out) / rec.sensor_power_w, 1.0,
                    copies == 4 ? 0.20 : 0.15)
            << copies << " copies";
    }
}

TEST(PerCorePower, SharesSumNearSensorWithoutPg)
{
    const auto &s = sensorStack();
    const auto attr = perCoreAttributor(s);
    auto out = attr.makeAttribution();
    const auto rec = measure(s, "458.sjeng", 4, false);
    attr.attributeInto(rec, false, out);
    EXPECT_EQ(out.unattributed_w, 0.0);
    EXPECT_NEAR(tenantSum(out) / rec.sensor_power_w, 1.0, 0.15);
}

TEST(PerCorePower, BusyCoreTotalsSplitDynamicAndIdle)
{
    const auto &s = sensorStack();
    const auto attr = perCoreAttributor(s);
    auto out = attr.makeAttribution();
    const auto rec = measure(s, "470.lbm", 2, true);
    attr.attributeInto(rec, true, out);
    std::size_t busy = 0;
    for (std::size_t c = 0; c < attr.tenantCount(); ++c) {
        if (rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] <= 0.0) {
            EXPECT_EQ(out.dynamic_w[c], 0.0) << "core " << c;
            continue;
        }
        ++busy;
        EXPECT_GT(out.dynamic_w[c], 0.0) << "core " << c;
        EXPECT_GT(out.idle_w[c], 0.0) << "core " << c;
        EXPECT_NEAR(out.total_w[c], out.dynamic_w[c] + out.idle_w[c],
                    1e-12)
            << "core " << c;
    }
    EXPECT_EQ(busy, 2u);
}

TEST(PerCorePowerDeath, UntrainedModelsRejected)
{
    const auto &s = stack();
    const model::DynamicPowerModel untrained;
    EXPECT_DEATH(TenantAttributor(s.cfg, untrained, s.models.pg,
                                  twoTenants()),
                 "dynamic model not trained");
}

TEST(TenantAttribution, UnownedCoresLandInUnattributed)
{
    const auto &s = stack();
    // Only CU 0 and CU 1 are owned; CUs 2-3 belong to nobody.
    const std::vector<TenantSpec> specs = {{"alpha", {0, 1}, {}},
                                           {"beta", {2, 3}, {}}};
    const TenantAttributor attr(s.cfg, s.models.dynamic, s.models.pg,
                                specs);
    auto out = attr.makeAttribution();

    const auto rec = makeRecord(s.cfg, {0, 2, 6}, 3);
    attr.attributeInto(rec, true, out);
    // Core 6 is busy and unowned: its dynamic power plus the idle
    // shares of cores 4-7 must land in the remainder, not vanish.
    EXPECT_GT(out.unattributed_w, 0.0);
    EXPECT_LE(reconciliationError(out), 1e-9);

    EXPECT_EQ(attr.ownerOf(0), 0);
    EXPECT_EQ(attr.ownerOf(2), 1);
    EXPECT_EQ(attr.ownerOf(6), -1);
}

/** One soak worker: @p intervals randomized records, worst error out. */
double
soakWorstError(const TenantAttributor &attr, const sim::ChipConfig &cfg,
               std::uint64_t seed, std::size_t intervals)
{
    util::Rng rng(seed);
    auto out = attr.makeAttribution();
    trace::IntervalRecord rec;
    rec.duration_s = 0.2;
    rec.pmc.resize(cfg.coreCount());
    rec.cu_vf.assign(cfg.n_cus, 0);

    double worst = 0.0;
    for (std::size_t i = 0; i < intervals; ++i) {
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
            rec.cu_vf[cu] = rng.uniformInt(cfg.vf_table.size());
        for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
            const bool busy = rng.uniform() < 0.6;
            for (std::size_t e = 0; e < sim::kNumPowerEvents; ++e)
                rec.pmc[c][e] = busy ? rng.uniform(0.0, 5e8) : 0.0;
            rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] =
                busy ? rng.uniform(1e6, 2e9) : 0.0;
        }
        const bool pg = rng.uniform() < 0.5;
        attr.attributeInto(rec, pg, out);
        worst = std::max(worst, reconciliationError(out));
        for (std::size_t t = 0; t < attr.tenantCount(); ++t) {
            if (!(out.dynamic_w[t] >= 0.0) || !(out.idle_w[t] >= 0.0) ||
                !std::isfinite(out.total_w[t]))
                return 1.0; // poisoned: fails the 1e-9 expectation
        }
    }
    return worst;
}

TEST(TenantAttributionSoak, TenThousandRandomizedIntervalsReconcile)
{
    const auto &s = stack();
    // Leave CU 3 unowned so the soak exercises the remainder path too.
    const std::vector<TenantSpec> specs = {
        {"alpha", {0, 1, 2, 3}, {}}, {"beta", {4, 5}, {}}};
    const TenantAttributor attr(s.cfg, s.models.dynamic, s.models.pg,
                                specs);
    EXPECT_LE(soakWorstError(attr, s.cfg, 2014, 10000), 1e-9);
}

TEST(TenantAttributionConcurrency, SharedAttributorAcrossThreads)
{
    // The attributor is const after construction; N threads attribute
    // through it concurrently, each with its own scratch block. Under
    // TSan this witnesses the read-only contract.
    const auto &s = stack();
    const TenantAttributor attr(s.cfg, s.models.dynamic, s.models.pg,
                                twoTenants());

    constexpr std::size_t kThreads = 4;
    std::vector<double> worst(kThreads, 1.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            worst[t] = soakWorstError(attr, s.cfg, 77 + t, 2500);
        });
    for (auto &th : pool)
        th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_LE(worst[t], 1e-9) << "thread " << t;
}

/** Captures per-interval tenant telemetry for the session test. */
class TenantCaptureSink : public runtime::TelemetrySink
{
  public:
    void
    onInterval(const runtime::IntervalTelemetry &t) override
    {
        ++intervals_;
        if (t.tenants == nullptr || t.tenant_names == nullptr)
            return;
        ++with_tenants_;
        names_ = *t.tenant_names;
        worst_error_ =
            std::max(worst_error_, reconciliationError(*t.tenants));
        for (const double w : t.tenants->total_w)
            min_total_ = std::min(min_total_, w);
    }

    std::size_t intervals_ = 0;
    std::size_t with_tenants_ = 0;
    std::vector<std::string> names_;
    double worst_error_ = 0.0;
    double min_total_ = std::numeric_limits<double>::infinity();
};

TEST(TenantSession, AttributionFlowsIntoTelemetry)
{
    TenantCaptureSink sink;
    std::vector<TenantSpec> specs = twoTenants();
    specs[0].jobs = {{0, "EP", true}};
    specs[1].jobs = {{4, "CG", true}};

    auto session = runtime::Session::builder(sim::fx8320Config())
                       .seed(11)
                       .pg(true)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .tenants(specs)
                       .sink(sink)
                       .build();
    ASSERT_NE(session.tenantAttributor(), nullptr);
    EXPECT_EQ(session.tenantAttributor()->tenantCount(), 2u);
    session.drive(8);

    EXPECT_EQ(sink.intervals_, 8u);
    EXPECT_EQ(sink.with_tenants_, 8u);
    ASSERT_EQ(sink.names_.size(), 2u);
    EXPECT_EQ(sink.names_[0], "alpha");
    EXPECT_EQ(sink.names_[1], "beta");
    EXPECT_LE(sink.worst_error_, 1e-9);
    // Both tenants run a looping job: neither total may be zero.
    EXPECT_GT(sink.min_total_, 0.0);
}

TEST(TenantSession, SessionWithoutTenantsCarriesNone)
{
    TenantCaptureSink sink;
    auto session = runtime::Session::builder(sim::fx8320Config())
                       .seed(11)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .onePerCu({"EP"})
                       .sink(sink)
                       .build();
    EXPECT_EQ(session.tenantAttributor(), nullptr);
    session.drive(3);
    EXPECT_EQ(sink.intervals_, 3u);
    EXPECT_EQ(sink.with_tenants_, 0u);
}

} // namespace
