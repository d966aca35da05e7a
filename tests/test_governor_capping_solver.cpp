/**
 * @file
 * Property test: PpepCappingGovernor's exact per-rail solver against
 * the exhaustive odometer oracle (tests/capping_odometer.hpp).
 *
 * Records come from seeded chips with random job placement — some
 * cores and whole CUs idle, power gating on or off — governed at random
 * per-CU VF states. Every decision must equal the oracle's and every
 * lastPredictedPower() must match it bit for bit, on the FX-8320's
 * shared rail, on per-CU rails, and on a PG-capable 6-CU x 1-core
 * variant, for random, boundary, infeasible and non-finite caps.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <vector>

#include "capping_odometer.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

/** Models trained once per platform and shared by the tests below. */
struct Platform
{
    sim::ChipConfig cfg;
    model::TrainedModels models;

    Platform(sim::ChipConfig c, std::uint64_t seed) : cfg(std::move(c))
    {
        std::vector<const workloads::Combination *> training;
        for (const auto &combo : workloads::allCombinations())
            if (combo.instances.size() == 1 && training.size() < 8)
                training.push_back(&combo);
        model::Trainer trainer(cfg, seed);
        models = trainer.trainAll(training);
    }

    static const Platform &
    fx()
    {
        static const Platform p(sim::fx8320Config(), 17);
        return p;
    }

    static const Platform &
    sixCu()
    {
        static const Platform p(
            [] {
                sim::ChipConfig cfg = sim::fx8320Config();
                cfg.name = "FX-8320 derivative, 6 CUs x 1 core";
                cfg.n_cus = 6;
                cfg.cores_per_cu = 1;
                cfg.validate();
                return cfg;
            }(),
            23);
        return p;
    }
};

/**
 * Intervals from seeded chips: each core runs a random program with
 * probability 1/2, power gating is a coin flip, and every interval
 * runs at fresh random per-CU VF states.
 */
std::vector<trace::IntervalRecord>
seededRecords(const sim::ChipConfig &cfg, std::uint64_t seed,
              std::size_t n_chips, std::size_t per_chip)
{
    const auto &programs = workloads::Suite::all();
    util::Rng rng(seed);
    std::vector<trace::IntervalRecord> out;
    for (std::size_t k = 0; k < n_chips; ++k) {
        sim::Chip chip(cfg, rng.next());
        chip.setPowerGatingEnabled(rng.uniform() < 0.5);
        for (std::size_t c = 0; c < cfg.coreCount(); ++c)
            if (rng.uniform() < 0.5)
                chip.setJob(c, programs[rng.uniformInt(programs.size())]
                                   .makeLoopingJob());
        trace::Collector col(chip);
        col.collect(2);
        for (std::size_t i = 0; i < per_chip; ++i) {
            for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
                chip.setCuVf(cu, rng.uniformInt(cfg.vf_table.size()));
            out.push_back(col.collectInterval());
        }
    }
    return out;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Decision counters, so a vacuous pass (all fallbacks) shows. */
struct Coverage
{
    std::size_t decisions = 0;
    std::size_t fitted = 0;   ///< oracle found a feasible assignment
    std::size_t fallback = 0; ///< nothing fit: all-lowest
    std::size_t idle_cu = 0;  ///< records with a whole CU idle
};

/**
 * One record against the oracle for a spread of caps: random caps
 * across the record's own predicted range, caps sitting exactly on an
 * assignment's predicted power (and one ulp below), infeasible,
 * infinite and NaN caps.
 */
void
checkRecord(governor::PpepCappingGovernor &gov,
            oracle::CappingOdometer &ref, const trace::IntervalRecord &rec,
            double guard_band, std::size_t n_random, util::Rng &rng,
            Coverage &cov)
{
    std::vector<std::size_t> got;
    std::vector<std::size_t> want;
    const auto expectSame = [&](double cap) {
        gov.decideInto(rec, cap, got);
        ref.decideInto(rec, cap, want);
        ASSERT_EQ(got, want) << "cap " << cap;
        ASSERT_EQ(bits(gov.lastPredictedPower()),
                  bits(ref.lastPredictedPower()))
            << "cap " << cap << ": " << gov.lastPredictedPower()
            << " vs " << ref.lastPredictedPower();
        ++cov.decisions;
        if (ref.lastPredictedPower() <= cap * (1.0 - guard_band))
            ++cov.fitted;
        else
            ++cov.fallback;
    };

    // The predicted range: the unconstrained optimum and all-lowest.
    expectSame(std::numeric_limits<double>::infinity());
    const double p_high = ref.lastPredictedPower();
    expectSame(3.0);
    const double p_low = ref.lastPredictedPower();
    expectSame(DBL_MAX);
    expectSame(std::numeric_limits<double>::quiet_NaN());
    expectSame(-std::numeric_limits<double>::infinity());

    const double scale = 1.0 / (1.0 - guard_band);
    for (std::size_t i = 0; i < n_random; ++i) {
        const double cap =
            rng.uniform(0.95 * p_low, 1.05 * p_high) * scale;
        expectSame(cap);
        if (guard_band == 0.0) {
            // The budget equals a predicted power exactly, then misses
            // it by one ulp: the `power <= budget` edge.
            const double edge = ref.lastPredictedPower();
            expectSame(edge);
            expectSame(std::nextafter(edge, 0.0));
        }
    }
}

/**
 * The trained PG components with Pidle(CU) redrawn at random per VF
 * state, so it no longer grows with voltage: the solver may not lean on
 * idle power rising with the rail level.
 */
model::PgIdleModel
shuffledCuIdle(const model::PgIdleModel &pg, std::uint64_t seed)
{
    util::Rng rng(seed);
    auto components = pg.allComponents();
    for (auto &c : components)
        c.p_cu = rng.uniform(0.0, 15.0);
    return model::PgIdleModel::fromComponents(components, pg.cuCount());
}

void
runProperty(const Platform &platform, bool per_cu_voltage,
            std::uint64_t seed, std::size_t n_chips, std::size_t per_chip,
            std::size_t n_random, bool shuffle_cu_idle = false)
{
    sim::ChipConfig cfg = platform.cfg;
    cfg.per_cu_voltage = per_cu_voltage;
    const model::Ppep ppep(cfg, platform.models.chip,
                           shuffle_cu_idle
                               ? shuffledCuIdle(platform.models.pg, seed)
                               : platform.models.pg);
    const auto records = seededRecords(cfg, seed, n_chips, per_chip);

    util::Rng rng(seed ^ 0x5eedULL);
    Coverage cov;
    for (const double guard_band : {0.02, 0.0}) {
        // One long-lived pair, so scratch reuse across decisions is
        // exercised too.
        governor::PpepCappingGovernor gov(cfg, ppep, guard_band);
        oracle::CappingOdometer ref(cfg, ppep, guard_band);
        for (const auto &rec : records) {
            checkRecord(gov, ref, rec, guard_band, n_random, rng, cov);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    for (const auto &rec : records) {
        std::vector<std::size_t> busy(cfg.n_cus, 0);
        for (std::size_t c = 0; c < cfg.coreCount(); ++c)
            busy[c / cfg.cores_per_cu] +=
                rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] > 0.0;
        for (std::size_t b : busy)
            if (b == 0) {
                ++cov.idle_cu;
                break;
            }
    }
    // Both outcomes and idle CUs must actually have been exercised.
    EXPECT_GT(cov.fitted, cov.decisions / 4);
    EXPECT_GT(cov.fallback, 0u);
    EXPECT_GT(cov.idle_cu, 0u);
}

TEST(CappingSolver, MatchesOdometerOnSharedRail)
{
    runProperty(Platform::fx(), false, 101, 16, 6, 6);
}

TEST(CappingSolver, MatchesOdometerOnPerCuRails)
{
    runProperty(Platform::fx(), true, 202, 16, 6, 6);
}

TEST(CappingSolver, MatchesOdometerOnSixSingleCoreCus)
{
    // 15,625 assignments per oracle decision: keep this one small.
    runProperty(Platform::sixCu(), false, 303, 6, 4, 3);
}

TEST(CappingSolver, MatchesOdometerOnSixCusPerCuRails)
{
    runProperty(Platform::sixCu(), true, 404, 6, 4, 3);
}

TEST(CappingSolver, MatchesOdometerWithNonMonotoneCuIdle)
{
    runProperty(Platform::fx(), false, 505, 12, 6, 6, true);
    runProperty(Platform::fx(), true, 606, 8, 6, 6, true);
}

TEST(CappingSolver, SymmetricCusTieToTheLowerOdometerIndex)
{
    // Cores 0 and 2 (CUs 0 and 1) carry identical counters and the
    // rest idle, so on a shared rail (v, w) and (w, v) predict exactly
    // equal IPS and power: the odometer keeps the lower index, i.e.
    // the higher state on CU 0.
    const Platform &platform = Platform::fx();
    const model::Ppep ppep(platform.cfg, platform.models.chip,
                           platform.models.pg);
    sim::Chip chip(platform.cfg, 31);
    chip.setPowerGatingEnabled(true);
    chip.setJob(0, workloads::Suite::byName("456.hmmer").makeLoopingJob());
    trace::Collector col(chip);
    col.collect(2);
    auto rec = col.collectInterval();
    rec.pmc[2] = rec.pmc[0];
    rec.cu_vf[1] = rec.cu_vf[0];

    governor::PpepCappingGovernor gov(platform.cfg, ppep, 0.0);
    oracle::CappingOdometer ref(platform.cfg, ppep, 0.0);
    std::vector<std::size_t> got;
    std::vector<std::size_t> want;
    ref.decideInto(rec, std::numeric_limits<double>::infinity(), want);
    const double p_high = ref.lastPredictedPower();
    std::size_t asymmetric = 0;
    for (int i = 0; i <= 400; ++i) {
        const double cap = p_high * (0.3 + 0.7 * i / 400.0);
        gov.decideInto(rec, cap, got);
        ref.decideInto(rec, cap, want);
        ASSERT_EQ(got, want) << "cap " << cap;
        ASSERT_EQ(bits(gov.lastPredictedPower()),
                  bits(ref.lastPredictedPower()));
        if (want[0] != want[1]) {
            ++asymmetric;
            EXPECT_GT(want[0], want[1]) << "cap " << cap;
        }
    }
    EXPECT_GT(asymmetric, 0u);
}

TEST(CappingSolver, FullyIdleChipStaysAtLowest)
{
    const Platform &platform = Platform::fx();
    const model::Ppep ppep(platform.cfg, platform.models.chip,
                           platform.models.pg);
    sim::Chip chip(platform.cfg, 9);
    chip.setPowerGatingEnabled(true);
    trace::Collector col(chip);
    col.collect(1);
    const auto rec = col.collectInterval();
    governor::PpepCappingGovernor gov(platform.cfg, ppep);
    oracle::CappingOdometer ref(platform.cfg, ppep);
    for (const double cap : {3.0, 60.0, DBL_MAX}) {
        const auto got = gov.decide(rec, cap);
        std::vector<std::size_t> want;
        ref.decideInto(rec, cap, want);
        EXPECT_EQ(got, std::vector<std::size_t>(platform.cfg.n_cus, 0));
        EXPECT_EQ(got, want);
        EXPECT_EQ(bits(gov.lastPredictedPower()),
                  bits(ref.lastPredictedPower()));
    }
}

} // namespace
