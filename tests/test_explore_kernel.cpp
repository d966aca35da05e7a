/**
 * @file
 * Differential tests for the batched VF×core exploration kernel: the
 * data-parallel exploreInto() path must be *bit-identical* to the
 * scalar oracle (explore_scalar_oracle.cpp — the original per-VF
 * predictAt() loop) on every field of every prediction, over both real
 * simulated intervals and 10k randomized records covering the guard
 * paths (idle cores, saturated counters, NaN counts, corrupt
 * cycles/instruction ratios).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>

#include "explore_scalar_oracle.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;

struct SharedModels
{
    sim::ChipConfig cfg;
    TrainedModels models;

    explicit SharedModels(sim::ChipConfig c) : cfg(std::move(c))
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
        static const SharedModels s(sim::fx8320Config());
        return s;
    }

    /** Phenom II X6: 6 cores, no CU pairing, 4 VF states, no PG. */
    static const SharedModels &
    phenom()
    {
        static const SharedModels s(sim::phenomIIConfig());
        return s;
    }
};

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/**
 * Bitwise equality, distinguishing -0.0 from +0.0 — except that any NaN
 * equals any NaN. The two paths agree deterministically on *which*
 * outputs are NaN, but a NaN's payload and sign come from IEEE
 * propagation rules that depend on instruction operand order (e.g.
 * `-nan + nan` returns whichever operand the codegen put first), which
 * no source-level contract can pin down.
 */
void
expectBitEqual(double a, double b, const char *what, std::size_t vf,
               std::size_t core = static_cast<std::size_t>(-1))
{
    if (std::isnan(a) && std::isnan(b))
        return;
    EXPECT_EQ(bits(a), bits(b))
        << what << " diverges at vf " << vf
        << (core == static_cast<std::size_t>(-1)
                ? std::string()
                : " core " + std::to_string(core))
        << ": batched " << a << " vs scalar " << b;
}

void
expectIdentical(const std::vector<VfPrediction> &batched,
                const std::vector<VfPrediction> &scalar)
{
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t vf = 0; vf < batched.size(); ++vf) {
        const VfPrediction &b = batched[vf];
        const VfPrediction &s = scalar[vf];
        EXPECT_EQ(b.vf_index, s.vf_index);
        expectBitEqual(b.chip_power_w, s.chip_power_w, "chip_power_w",
                       vf);
        expectBitEqual(b.idle_w, s.idle_w, "idle_w", vf);
        expectBitEqual(b.dynamic_w, s.dynamic_w, "dynamic_w", vf);
        expectBitEqual(b.total_ips, s.total_ips, "total_ips", vf);
        expectBitEqual(b.energy_per_inst, s.energy_per_inst,
                       "energy_per_inst", vf);
        expectBitEqual(b.edp_per_inst, s.edp_per_inst, "edp_per_inst",
                       vf);
        ASSERT_EQ(b.cores.size(), s.cores.size());
        for (std::size_t c = 0; c < b.cores.size(); ++c) {
            expectBitEqual(b.cores[c].cpi, s.cores[c].cpi, "cpi", vf,
                           c);
            expectBitEqual(b.cores[c].ips, s.cores[c].ips, "ips", vf,
                           c);
            expectBitEqual(b.cores[c].dynamic_w, s.cores[c].dynamic_w,
                           "core dynamic_w", vf, c);
            EXPECT_EQ(b.cores[c].busy, s.cores[c].busy);
        }
    }
}

void
expectPathsAgree(const Ppep &ppep, const ppep::trace::IntervalRecord &rec)
{
    ExploreScratch scratch_b, scratch_s;
    std::vector<VfPrediction> batched, scalar;
    ppep.exploreInto(rec, batched, scratch_b);
    ppep::oracle::exploreScalar(ppep, rec, scalar, scratch_s);
    expectIdentical(batched, scalar);
}

// --- golden: real simulated intervals ------------------------------------

ppep::trace::IntervalRecord
measure(const sim::ChipConfig &cfg, const std::string &program,
        std::size_t copies, std::size_t vf)
{
    sim::Chip chip(cfg, 77);
    chip.setAllVf(vf);
    wl::launch(chip, wl::replicate(program, copies), true);
    ppep::trace::Collector col(chip);
    col.collect(3);
    return col.collectInterval();
}

/** Busy intervals at every VF state, then an all-idle chip, whose
 *  cores all take the zero-prediction sentinel path. */
void
expectPathsAgreeOnChip(const SharedModels &s)
{
    SCOPED_TRACE(s.cfg.name);
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const std::size_t n_cores = s.cfg.coreCount();
    for (std::size_t vf = 0; vf < s.cfg.vf_table.size(); ++vf) {
        SCOPED_TRACE("vf " + std::to_string(vf));
        expectPathsAgree(ppep, measure(s.cfg, "433.milc", n_cores / 2, vf));
        expectPathsAgree(ppep, measure(s.cfg, "458.sjeng", n_cores, vf));
    }
    expectPathsAgree(ppep, measure(s.cfg, "470.lbm", 1, 2));
    sim::Chip idle(s.cfg, 7);
    idle.setAllVf(3);
    ppep::trace::Collector col(idle);
    col.collect(2);
    expectPathsAgree(ppep, col.collectInterval());
}

TEST(ExploreKernel, BatchedMatchesScalarOnSimulatedIntervals)
{
    expectPathsAgreeOnChip(SharedModels::get());
    // The kernel's other lane shape: 6 cores, no CU pairing, 4 VF states.
    const SharedModels &ph = SharedModels::phenom();
    ASSERT_EQ(ph.cfg.coreCount(), 6u);
    ASSERT_EQ(ph.cfg.cores_per_cu, 1u);
    ASSERT_EQ(ph.cfg.vf_table.size(), 4u);
    ASSERT_FALSE(ph.cfg.pg_supported);
    expectPathsAgreeOnChip(ph);
}

TEST(ExploreKernel, PlanMirrorsVfTable)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    const ExplorePlan &plan = ppep.plan();
    ASSERT_EQ(plan.size(), s.cfg.vf_table.size());
    for (std::size_t vf = 0; vf < plan.size(); ++vf) {
        EXPECT_EQ(plan.freq_ghz[vf], s.cfg.vf_table.state(vf).freq_ghz);
        EXPECT_EQ(plan.voltage[vf], s.cfg.vf_table.state(vf).voltage);
        EXPECT_GT(plan.vscale[vf], 0.0);
    }
}

// --- randomized differential ---------------------------------------------

/**
 * Random interval records spanning the kernel's guard space: busy and
 * idle cores, tiny and saturated counts, occasional NaN/huge poisons,
 * and corrupt cycles-vs-instructions ratios that push the predicted CPI
 * through zero or past DBL_MAX.
 */
ppep::trace::IntervalRecord
randomRecord(std::mt19937_64 &rng, const sim::ChipConfig &cfg)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> vf_dist(
        0, cfg.vf_table.size() - 1);
    std::uniform_int_distribution<std::size_t> core_dist(0, 8);

    ppep::trace::IntervalRecord rec;
    rec.duration_s = unit(rng) < 0.05 ? 1e-9 : 0.2;
    rec.diode_temp_k = 280.0 + 80.0 * unit(rng);
    rec.cu_vf.assign(cfg.n_cus, 0);
    for (auto &v : rec.cu_vf)
        v = vf_dist(rng);
    rec.sensor_power_w = 100.0 * unit(rng);

    rec.pmc.resize(core_dist(rng));
    for (auto &core : rec.pmc) {
        core = sim::EventVector{};
        const double r = unit(rng);
        if (r < 0.15)
            continue; // idle core: all-zero counts
        // log-uniform magnitudes from near-zero to saturated
        auto count = [&] {
            const double mag = unit(rng);
            if (mag < 0.05)
                return 1e308; // saturated / wrapped counter
            if (mag < 0.10)
                return std::numeric_limits<double>::quiet_NaN();
            return std::pow(10.0, 14.0 * unit(rng)); // up to 1e14
        };
        for (std::size_t e = 0; e < core.size(); ++e)
            core[e] = count();
        // Corrupt ratio corner: instructions without cycles (and the
        // reverse) drive the CPI guard paths.
        if (r < 0.25)
            core[sim::eventIndex(sim::Event::ClocksNotHalted)] = 0.0;
        else if (r < 0.35)
            core[sim::eventIndex(sim::Event::RetiredInst)] = 0.0;
    }
    return rec;
}

TEST(ExploreKernel, BatchedMatchesScalarOn10kRandomRecords)
{
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    std::mt19937_64 rng(2014);
    ExploreScratch scratch_b, scratch_s;
    std::vector<VfPrediction> batched, scalar;
    for (int i = 0; i < 10000; ++i) {
        const auto rec = randomRecord(rng, s.cfg);
        ppep.exploreInto(rec, batched, scratch_b);
        ppep::oracle::exploreScalar(ppep, rec, scalar, scratch_s);
        SCOPED_TRACE("record " + std::to_string(i));
        expectIdentical(batched, scalar);
        if (HasFailure())
            break; // one record's dump is enough
    }
}

TEST(ExploreKernel, ExploreIntoReusesScratchWithoutStaleState)
{
    // Alternating wildly different core counts through ONE scratch must
    // still match a fresh-scratch scalar run: the workspace resize is
    // grow-only, so stale cells from a wider record must never leak.
    const auto &s = SharedModels::get();
    Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    std::mt19937_64 rng(7);
    ExploreScratch reused;
    std::vector<VfPrediction> batched, scalar;
    for (int i = 0; i < 50; ++i) {
        const auto rec = randomRecord(rng, s.cfg);
        ppep.exploreInto(rec, batched, reused);
        ExploreScratch fresh;
        ppep::oracle::exploreScalar(ppep, rec, scalar, fresh);
        SCOPED_TRACE("record " + std::to_string(i));
        expectIdentical(batched, scalar);
    }
}

} // namespace
