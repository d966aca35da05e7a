/**
 * @file
 * Tests for the Eq. 7/8 power-gating idle decomposition and the Fig. 4
 * extraction protocol. The per-core Eq. 7/8 shares are checked on the
 * attribution that runs: runtime::TenantAttributor with one tenant per
 * core, over exact synthetic components.
 */

#include <gtest/gtest.h>

#include <string>

#include "ppep/model/pg_idle_model.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/hw_power_model.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;
using ppep::runtime::TenantAttributor;
using ppep::runtime::TenantSpec;

/** Synthetic sweeps built from exact components (no noise). */
std::vector<PgSweepMeasurement>
syntheticSweeps(double p_cu, double p_nb, double p_base,
                double busy_power)
{
    PgSweepMeasurement m;
    m.vf_index = 0;
    for (std::size_t k = 0; k <= 4; ++k) {
        const double busy = busy_power * static_cast<double>(k);
        // PG off: everything idle-powered regardless of k.
        m.power_pg_off.push_back(4.0 * p_cu + p_nb + p_base + busy);
        // PG on: only busy CUs (and the NB when any CU is alive).
        const double idle =
            k == 0 ? p_base
                   : static_cast<double>(k) * p_cu + p_nb + p_base;
        m.power_pg_on.push_back(idle + busy);
    }
    return {m};
}

/**
 * Exact components at all five FX-8320 VF states. Pidle(CU) grows with
 * the VF; the NB and base vary a little, so their averages differ from
 * every single state's value.
 */
PgIdleModel
fiveVfModel()
{
    std::vector<PgSweepMeasurement> sweeps;
    for (std::size_t vf = 0; vf < 5; ++vf) {
        const double f = static_cast<double>(vf);
        auto one = syntheticSweeps(4.0 + f, 8.0 + 0.5 * f, 7.0 - 0.25 * f,
                                   12.0 + f);
        one[0].vf_index = vf;
        sweeps.push_back(one[0]);
    }
    return PgIdleModel::fromSweeps(sweeps, 4);
}

/** One tenant per core; idle shares do not read the dynamic weights. */
TenantAttributor
perCoreAttributor(const sim::ChipConfig &cfg, const PgIdleModel &pg)
{
    static const DynamicPowerModel dyn = DynamicPowerModel::fromWeights(
        {1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9}, 1.32, 2.0);
    std::vector<TenantSpec> specs;
    for (std::size_t c = 0; c < cfg.coreCount(); ++c)
        specs.push_back({"core" + std::to_string(c), {c}, {}});
    return TenantAttributor(cfg, dyn, pg, specs);
}

/** An interval where @p busy_cores retire instructions at VF @p vf. */
ppep::trace::IntervalRecord
busyRecord(const sim::ChipConfig &cfg,
           const std::vector<std::size_t> &busy_cores, std::size_t vf)
{
    ppep::trace::IntervalRecord rec;
    rec.duration_s = 0.2;
    rec.pmc.resize(cfg.coreCount());
    rec.cu_vf.assign(cfg.n_cus, vf);
    for (const std::size_t c : busy_cores)
        rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] = 2.5e8;
    return rec;
}

/** Every core of @p cfg. */
std::vector<std::size_t>
allCores(const sim::ChipConfig &cfg)
{
    std::vector<std::size_t> cores;
    for (std::size_t c = 0; c < cfg.coreCount(); ++c)
        cores.push_back(c);
    return cores;
}

TEST(PgModel, ExtractsExactComponents)
{
    const auto model =
        PgIdleModel::fromSweeps(syntheticSweeps(6.0, 9.0, 7.0, 12.0), 4);
    const auto &c = model.components(0);
    EXPECT_NEAR(c.p_cu, 6.0, 1e-9);
    EXPECT_NEAR(c.p_nb, 9.0, 1e-9);
    EXPECT_NEAR(c.p_base, 7.0, 1e-9);
}

TEST(PgModel, Equation7Arithmetic)
{
    // PG on, every core busy: each core carries its CU's idle power
    // over the m busy cores there, plus NB + base over the n busy cores
    // chip-wide.
    const auto cfg = sim::fx8320Config();
    const auto model = fiveVfModel();
    const auto attr = perCoreAttributor(cfg, model);
    auto out = attr.makeAttribution();
    const double m = static_cast<double>(cfg.cores_per_cu);
    const double n = static_cast<double>(cfg.coreCount());
    ASSERT_EQ(cfg.vf_table.size(), 5u);
    for (std::size_t vf = 0; vf < 5; ++vf) {
        attr.attributeInto(busyRecord(cfg, allCores(cfg), vf), true, out);
        const double eq7 = model.components(vf).p_cu / m +
                           (model.pNbAvg() + model.pBaseAvg()) / n;
        for (std::size_t t = 0; t < attr.tenantCount(); ++t)
            EXPECT_NEAR(out.idle_w[t], eq7, 1e-12)
                << "vf=" << vf << " core " << t;
    }
}

TEST(PgModel, Equation8Arithmetic)
{
    // PG off, every core busy: the whole chip idle power shared by n.
    const auto cfg = sim::fx8320Config();
    const auto model = fiveVfModel();
    const auto attr = perCoreAttributor(cfg, model);
    auto out = attr.makeAttribution();
    const double n = static_cast<double>(cfg.coreCount());
    const double n_cus = static_cast<double>(cfg.n_cus);
    for (std::size_t vf = 0; vf < 5; ++vf) {
        attr.attributeInto(busyRecord(cfg, allCores(cfg), vf), false,
                           out);
        const double eq8 = (n_cus * model.components(vf).p_cu +
                            model.pNbAvg() + model.pBaseAvg()) /
                           n;
        for (std::size_t t = 0; t < attr.tenantCount(); ++t)
            EXPECT_NEAR(out.idle_w[t], eq8, 1e-12)
                << "vf=" << vf << " core " << t;
    }
}

TEST(PgModel, PerCoreSharesSumToChipIdle)
{
    const auto cfg = sim::fx8320Config();
    const auto model =
        PgIdleModel::fromSweeps(syntheticSweeps(6.0, 9.0, 7.0, 12.0), 4);
    const auto attr = perCoreAttributor(cfg, model);
    auto out = attr.makeAttribution();
    // 3 busy CUs with {2, 1, 1} busy cores -> 4 busy cores total.
    const auto rec = busyRecord(cfg, {0, 1, 2, 4}, 0);
    const std::vector<std::size_t> busy{2, 1, 1, 0};
    for (const bool pg : {true, false}) {
        attr.attributeInto(rec, pg, out);
        double shared = 0.0;
        for (std::size_t t = 0; t < attr.tenantCount(); ++t)
            shared += out.idle_w[t];
        EXPECT_NEAR(shared, model.chipIdleMixed(rec.cu_vf, busy, pg),
                    1e-9)
            << "pg=" << pg;
    }
    // Under PG the fourth CU gates: base + NB + three Pidle(CU).
    attr.attributeInto(rec, true, out);
    double shared = 0.0;
    for (std::size_t t = 0; t < attr.tenantCount(); ++t)
        shared += out.idle_w[t];
    EXPECT_NEAR(shared, 7.0 + 9.0 + 3.0 * 6.0, 1e-9);
}

TEST(PgModel, ChipIdleFullyGated)
{
    const auto model =
        PgIdleModel::fromSweeps(syntheticSweeps(6.0, 9.0, 7.0, 12.0), 4);
    const std::vector<std::size_t> cu_vf{0, 0, 0, 0};
    const std::vector<std::size_t> none{0, 0, 0, 0};
    // Fully idle under PG: every CU and the NB gate, the base remains.
    EXPECT_NEAR(model.chipIdleMixed(cu_vf, none, true), 7.0, 1e-9);
    // PG off: nothing gates, so every CU and the NB count.
    EXPECT_NEAR(model.chipIdleMixed(cu_vf, none, false),
                4.0 * 6.0 + 9.0 + 7.0, 1e-9);
}

TEST(PgModel, ChipIdleMixedUsesPerCuVf)
{
    // Two VF states with different CU idle power.
    auto sweeps = syntheticSweeps(6.0, 9.0, 7.0, 12.0);
    auto hi = syntheticSweeps(10.0, 9.0, 7.0, 20.0);
    hi[0].vf_index = 1;
    sweeps.push_back(hi[0]);
    const auto model = PgIdleModel::fromSweeps(sweeps, 4);
    const std::vector<std::size_t> cu_vf{0, 1, 0, 1};
    const std::vector<std::size_t> busy{1, 1, 0, 0};
    EXPECT_NEAR(model.chipIdleMixed(cu_vf, busy, true),
                7.0 + 9.0 + 6.0 + 10.0, 1e-9);

    // PG off: nothing gates, so every CU at its own VF and the NB count.
    const std::vector<std::size_t> none{0, 0, 0, 0};
    EXPECT_NEAR(model.chipIdleMixed(cu_vf, none, false),
                7.0 + 9.0 + 6.0 + 10.0 + 6.0 + 10.0, 1e-9);
    // One busy CU: gating the other three saves three Pidle(CU).
    const std::vector<std::size_t> uniform{1, 1, 1, 1};
    const std::vector<std::size_t> one_busy{1, 0, 0, 0};
    EXPECT_NEAR(model.chipIdleMixed(uniform, one_busy, false) -
                    model.chipIdleMixed(uniform, one_busy, true),
                3.0 * 10.0, 1e-9);
}

TEST(PgModel, AveragedNbAndBase)
{
    auto sweeps = syntheticSweeps(6.0, 8.0, 7.0, 12.0);
    auto second = syntheticSweeps(9.0, 10.0, 7.0, 20.0);
    second[0].vf_index = 1;
    sweeps.push_back(second[0]);
    const auto model = PgIdleModel::fromSweeps(sweeps, 4);
    EXPECT_NEAR(model.pNbAvg(), 9.0, 1e-9);
    EXPECT_NEAR(model.pBaseAvg(), 7.0, 1e-9);
}

TEST(PgModelDeath, UntrainedComponentsPanic)
{
    PgIdleModel m;
    EXPECT_FALSE(m.trained());
    EXPECT_DEATH(m.components(0), "no components");
}

/** The full Fig. 4 protocol against the simulator. */
TEST(PgProtocol, RecoversGroundTruthComponents)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 13);
    const auto model = trainer.trainPg();
    ASSERT_TRUE(model.trained());

    // Ground truth at the top VF, warm die.
    const sim::HwPowerModel hw(cfg);
    const double temp = cfg.thermal.ambient_k + 16.0;
    const double true_cu = hw.cuIdlePower(1.320, 3.5, temp);
    const double true_nb = hw.nbStaticPower(cfg.nb.vf_hi, temp);

    const auto &c = model.components(cfg.vf_table.top());
    // Measured components within ~20%: the protocol fights sensor noise,
    // thermal drift, and the PG residual, just like the real experiment.
    EXPECT_NEAR(c.p_cu / true_cu, 1.0, 0.2);
    EXPECT_NEAR(c.p_nb / (true_nb + cfg.power.housekeeping_w), 1.0, 0.3);
    // The measured base absorbs the gating residuals of the CUs and
    // the NB (nothing reaches exactly zero when gated). When every CU
    // gates, the shared rail falls to the lowest table voltage, so the
    // residual is priced there.
    const double v_floor = cfg.vf_table.state(0).voltage;
    const double residual =
        cfg.power.pg_residual *
        (static_cast<double>(cfg.n_cus) *
             hw.cuIdlePower(v_floor, 3.5, temp) +
         hw.nbStaticPower(cfg.nb.vf_hi, temp));
    EXPECT_NEAR(c.p_base, cfg.power.base_power_w + residual,
                (cfg.power.base_power_w + residual) * 0.3);
}

TEST(PgProtocol, Figure4GapsGrowAsBusyCusShrink)
{
    Trainer trainer(sim::fx8320Config(), 13);
    const auto sweeps = trainer.collectPgSweeps();
    ASSERT_EQ(sweeps.size(), 5u);
    for (const auto &s : sweeps) {
        // gap(k) decreases with k and vanishes at k = 4 (paper Fig. 4).
        double prev_gap = 1e9;
        for (std::size_t k = 0; k <= 4; ++k) {
            const double gap = s.power_pg_off[k] - s.power_pg_on[k];
            EXPECT_LT(gap, prev_gap + 0.5) << "VF " << s.vf_index
                                           << " k=" << k;
            prev_gap = gap;
        }
        EXPECT_NEAR(s.power_pg_off[4], s.power_pg_on[4],
                    0.02 * s.power_pg_off[4] + 0.5);
    }
}

TEST(PgProtocol, ComponentsShrinkWithVf)
{
    Trainer trainer(sim::fx8320Config(), 13);
    const auto model = trainer.trainPg();
    // CU idle power at VF1 must be well below VF5 (lower V and f).
    EXPECT_LT(model.components(0).p_cu,
              0.6 * model.components(4).p_cu);
}

} // namespace
