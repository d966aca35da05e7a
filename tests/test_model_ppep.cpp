/**
 * @file
 * Integration tests for the assembled PPEP framework (Fig. 5 pipeline).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/stats.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;

/** Train once for the whole file (a few hundred ms). */
struct SharedModels
{
    sim::ChipConfig cfg = sim::fx8320Config();
    TrainedModels models;

    SharedModels()
    {
        Trainer trainer(cfg, 21);
        std::vector<const wl::Combination *> training;
        for (const auto &c : wl::allCombinations()) {
            if (c.instances.size() == 1 && training.size() < 16)
                training.push_back(&c);
        }
        models = trainer.trainAll(training);
    }

    static const SharedModels &
    get()
    {
        static const SharedModels s;
        return s;
    }
};

ppep::trace::IntervalRecord
measure(const std::string &program, std::size_t copies, std::size_t vf,
        bool pg = false)
{
    const auto &s = SharedModels::get();
    sim::Chip chip(s.cfg, 77);
    chip.setAllVf(vf);
    if (pg)
        chip.setPowerGatingEnabled(true);
    wl::launch(chip, wl::replicate(program, copies), true);
    ppep::trace::Collector col(chip);
    col.collect(3);
    return col.collectInterval();
}

TEST(Ppep, ExploreCoversAllVfStates)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto preds = ppep.explore(measure("433.milc", 1, 4));
    ASSERT_EQ(preds.size(), 5u);
    for (std::size_t i = 0; i < preds.size(); ++i)
        EXPECT_EQ(preds[i].vf_index, i);
}

TEST(Ppep, PowerMonotoneInVf)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto preds = ppep.explore(measure("458.sjeng", 4, 4));
    for (std::size_t i = 1; i < preds.size(); ++i)
        EXPECT_GT(preds[i].chip_power_w, preds[i - 1].chip_power_w);
}

TEST(Ppep, SelfPredictionMatchesSensor)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto rec = measure("462.libquantum", 2, 4);
    const auto pred = ppep.explore(rec)[4];
    EXPECT_NEAR(pred.chip_power_w / rec.sensor_power_w, 1.0, 0.10);
}

TEST(Ppep, CrossVfPredictionMatchesActualRun)
{
    // Predict VF2 power from a VF5 measurement, then actually run at
    // VF2 and compare — the paper's core claim (avg error 4.2%).
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    for (const char *prog : {"433.milc", "458.sjeng", "canneal"}) {
        const auto pred = ppep.explore(measure(prog, 2, 4))[1];
        const auto actual = measure(prog, 2, 1);
        EXPECT_NEAR(pred.chip_power_w / actual.sensor_power_w, 1.0,
                    0.15)
            << prog;
    }
}

TEST(Ppep, MemoryBoundThroughputSaturates)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto preds = ppep.explore(measure("429.mcf", 1, 4));
    const double speedup =
        preds[4].total_ips / preds[0].total_ips;
    EXPECT_LT(speedup, 1.8); // far below the 2.5x clock ratio
    const auto cpu = ppep.explore(measure("456.hmmer", 1, 4));
    EXPECT_GT(cpu[4].total_ips / cpu[0].total_ips, 2.2);
}

TEST(Ppep, IdleCoresPredictIdle)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto rec = measure("456.hmmer", 1, 4);
    const auto pred = ppep.explore(rec)[2];
    std::size_t busy = 0;
    for (const auto &core : pred.cores)
        busy += core.busy;
    EXPECT_EQ(busy, 1u);
}

TEST(Ppep, EnergyMetricsPopulated)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto preds = ppep.explore(measure("FT", 4, 4));
    for (const auto &p : preds) {
        EXPECT_GT(p.energy_per_inst, 0.0);
        EXPECT_GT(p.edp_per_inst, 0.0);
        EXPECT_NEAR(p.edp_per_inst,
                    p.energy_per_inst / p.total_ips, 1e-18);
    }
}

TEST(Ppep, AssignmentIdleUsesGatedDecomposition)
{
    // The per-CU governors price an assignment's idle power with the
    // PG decomposition Ppep carries, over the interval's busy topology.
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const auto rec = measure("456.hmmer", 1, 4, /*pg=*/true);
    std::vector<std::size_t> busy(s.cfg.n_cus, 0);
    for (std::size_t c = 0; c < rec.pmc.size(); ++c)
        if (rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] > 0.0)
            ++busy[c / s.cfg.cores_per_cu];
    ASSERT_EQ(std::count(busy.begin(), busy.end(), 0u), 3);
    const std::vector<std::size_t> top(s.cfg.n_cus, 4);
    const double gated = ppep.pgModel().chipIdleMixed(top, busy, true);
    const double open = ppep.pgModel().chipIdleMixed(top, busy, false);
    // With one busy CU, gating the other three must save power.
    EXPECT_LT(gated, open - 3.0);
}

TEST(PpepDeath, RequiresTrainedPowerModel)
{
    const auto &s = SharedModels::get();
    EXPECT_DEATH(Ppep(s.cfg, ChipPowerModel{}, s.models.pg),
                 "trained power model");
}

} // namespace
