/**
 * @file
 * Unit tests for the synthetic benchmark suite and combination builder.
 */

#include <gtest/gtest.h>

#include <set>

#include "ppep/sim/chip.hpp"
#include "ppep/workloads/microbench.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep::workloads;

TEST(Suite, FiftyTwoPrograms)
{
    EXPECT_EQ(Suite::all().size(), 52u);
    EXPECT_EQ(Suite::bySuite(SuiteId::Spec).size(), 29u);
    EXPECT_EQ(Suite::bySuite(SuiteId::Parsec).size(), 13u);
    EXPECT_EQ(Suite::bySuite(SuiteId::Npb).size(), 10u);
}

TEST(Suite, NamesUnique)
{
    std::set<std::string> names;
    for (const auto &p : Suite::all())
        EXPECT_TRUE(names.insert(p.name).second) << p.name;
}

TEST(Suite, AnchorsExist)
{
    EXPECT_TRUE(Suite::exists("433.milc"));
    EXPECT_TRUE(Suite::exists("458.sjeng"));
    EXPECT_FALSE(Suite::exists("999.bogus"));
}

TEST(Suite, MilcIsMemoryBoundSjengIsNot)
{
    const auto &milc = Suite::byName("433.milc");
    const auto &sjeng = Suite::byName("458.sjeng");
    auto leading = [](const BenchmarkProfile &p) {
        double s = 0.0;
        for (const auto &ph : p.phases)
            s += ph.leading_per_inst;
        return s / static_cast<double>(p.phases.size());
    };
    EXPECT_GT(leading(milc), 5.0 * leading(sjeng));
}

TEST(Suite, AllPhasesValidate)
{
    for (const auto &p : Suite::all())
        for (const auto &ph : p.phases)
            EXPECT_NO_FATAL_FAILURE(ph.validate()) << p.name;
}

TEST(Suite, ProfilesAreDeterministic)
{
    // Two lookups return identical phase data (built once, cached).
    const auto &a = Suite::byName("403.gcc");
    const auto &b = Suite::byName("403.gcc");
    EXPECT_EQ(&a, &b);
}

TEST(Suite, RapidProfilesHaveShortPhases)
{
    for (const char *name : {"dedup", "IS", "DC"}) {
        const auto &p = Suite::byName(name);
        EXPECT_GT(p.phases.size(), 15u) << name;
        double mean_len = p.totalInstructions() /
                          static_cast<double>(p.phases.size());
        EXPECT_LT(mean_len, 1e8) << name;
    }
}

TEST(Suite, ShortBenchmarksAreShort)
{
    // dedup and IS have "much shorter execution times" (paper IV-B2).
    EXPECT_LT(Suite::byName("dedup").totalInstructions(), 4.5e9);
    EXPECT_LT(Suite::byName("IS").totalInstructions(), 4.5e9);
    EXPECT_GT(Suite::byName("444.namd").totalInstructions(), 9e9);
}

TEST(Suite, MakeJobRunsOnce)
{
    auto job = Suite::byName("456.hmmer").makeJob();
    // Slight overshoot absorbs floating-point dust from the per-phase
    // accumulation; a finite job must not survive its total work.
    job->advance(job->totalInstructions() * 1.0001);
    EXPECT_TRUE(job->finished());
}

TEST(Suite, MakeLoopingJobLoops)
{
    auto job = Suite::byName("456.hmmer").makeLoopingJob();
    job->advance(job->totalInstructions() * 2.5);
    EXPECT_FALSE(job->finished());
}

TEST(Combos, OneHundredFiftyTwoTotal)
{
    const auto &combos = allCombinations();
    EXPECT_EQ(combos.size(), 152u);
    EXPECT_EQ(combinationsBySuite(SuiteId::Spec).size(), 61u);
    EXPECT_EQ(combinationsBySuite(SuiteId::Parsec).size(), 51u);
    EXPECT_EQ(combinationsBySuite(SuiteId::Npb).size(), 40u);
}

TEST(Combos, SpecGroupSizesMatchPaper)
{
    // 29 singles, 15 doubles, 10 triples, 7 quads (Sec. IV-B1).
    std::array<std::size_t, 5> by_size{};
    for (const auto *c : combinationsBySuite(SuiteId::Spec))
        ++by_size[c->instances.size()];
    EXPECT_EQ(by_size[1], 29u);
    EXPECT_EQ(by_size[2], 15u);
    EXPECT_EQ(by_size[3], 10u);
    EXPECT_EQ(by_size[4], 7u);
}

TEST(Combos, NamesUnique)
{
    std::set<std::string> names;
    for (const auto &c : allCombinations())
        EXPECT_TRUE(names.insert(c.name).second) << c.name;
}

TEST(Combos, AllInstancesResolvable)
{
    for (const auto &c : allCombinations())
        for (const auto &inst : c.instances)
            EXPECT_TRUE(Suite::exists(inst)) << c.name << ": " << inst;
}

TEST(Combos, Fig6DoubleExists)
{
    bool found = false;
    for (const auto &c : allCombinations())
        found = found || c.name == "400+401";
    EXPECT_TRUE(found);
}

TEST(Combos, ThreadCountsAreOneToEight)
{
    for (const auto *c : combinationsBySuite(SuiteId::Parsec)) {
        EXPECT_GE(c->instances.size(), 1u);
        EXPECT_LE(c->instances.size(), 8u);
    }
}

TEST(Combos, FittingCombinationsKeepOrderAndDropOversized)
{
    std::vector<const Combination *> all;
    std::size_t fit_six = 0;
    for (const auto &c : allCombinations()) {
        all.push_back(&c);
        fit_six += c.instances.size() <= 6 ? 1 : 0;
    }
    const auto six = fittingCombinations(all, 6);
    EXPECT_EQ(six.size(), fit_six);
    EXPECT_LT(six.size(), all.size());
    for (std::size_t i = 0; i < six.size(); ++i) {
        EXPECT_LE(six[i]->instances.size(), 6u) << six[i]->name;
        if (i > 0) {
            EXPECT_LT(six[i - 1], six[i]) << "order changed";
        }
    }
    EXPECT_EQ(fittingCombinations(all, 8), all);
}

TEST(Launch, SpecInstancesLandOnDistinctCus)
{
    ppep::sim::Chip chip(ppep::sim::fx8320Config(), 1);
    const Combination *quad = nullptr;
    for (const auto &c : allCombinations())
        if (c.instances.size() == 4 && c.suite == SuiteId::Spec)
            quad = &c;
    ASSERT_NE(quad, nullptr);
    const auto cores = launch(chip, *quad);
    ASSERT_EQ(cores.size(), 4u);
    std::set<std::size_t> cus;
    for (std::size_t core : cores)
        cus.insert(core / chip.config().cores_per_cu);
    EXPECT_EQ(cus.size(), 4u);
}

TEST(Launch, EightThreadsFillAllCores)
{
    ppep::sim::Chip chip(ppep::sim::fx8320Config(), 1);
    const auto combo = replicate("CG", 8);
    const auto cores = launch(chip, combo);
    std::set<std::size_t> unique(cores.begin(), cores.end());
    EXPECT_EQ(unique.size(), 8u);
}

TEST(Launch, ClearsPreviousJobs)
{
    ppep::sim::Chip chip(ppep::sim::fx8320Config(), 1);
    launch(chip, replicate("EP", 8));
    launch(chip, replicate("EP", 1));
    std::size_t busy = 0;
    for (std::size_t c = 0; c < 8; ++c)
        busy += chip.job(c) != nullptr;
    EXPECT_EQ(busy, 1u);
}

TEST(Replicate, BuildsNamedCombo)
{
    const auto c = replicate("433.milc", 3);
    EXPECT_EQ(c.instances.size(), 3u);
    EXPECT_EQ(c.name, "433.milc x3");
    EXPECT_EQ(c.suite, SuiteId::Spec);
}

TEST(Microbench, BenchAIsNbSilent)
{
    auto job = makeBenchA();
    const auto &p = job->currentPhase();
    EXPECT_DOUBLE_EQ(p.l2miss_per_inst, 0.0);
    EXPECT_DOUBLE_EQ(p.leading_per_inst, 0.0);
    EXPECT_DOUBLE_EQ(p.l2req_per_inst, 0.0);
}

TEST(Microbench, BenchAIsSteadySinglePhaseLoop)
{
    auto job = makeBenchA();
    EXPECT_EQ(job->phaseCount(), 1u);
    job->advance(5e9);
    EXPECT_FALSE(job->finished());
}

TEST(Microbench, HeaterBurnsMoreThanBenchA)
{
    // The heater must dissipate clearly more dynamic power than bench_A.
    ppep::sim::Chip hot(ppep::sim::fx8320Config(), 1);
    ppep::sim::Chip mild(ppep::sim::fx8320Config(), 1);
    for (std::size_t c = 0; c < 8; ++c) {
        hot.setJob(c, makeHeater());
        mild.setJob(c, makeBenchA());
    }
    double p_hot = 0.0, p_mild = 0.0;
    for (int i = 0; i < 20; ++i) {
        p_hot += hot.tick().truth.power.coreDynamicTotal();
        p_mild += mild.tick().truth.power.coreDynamicTotal();
    }
    EXPECT_GT(p_hot, 1.3 * p_mild);
}

// Property sweep: every suite's combinations launch cleanly on the
// FX-8320 topology.
class LaunchSweep : public ::testing::TestWithParam<SuiteId>
{
};

TEST_P(LaunchSweep, AllCombosLaunch)
{
    ppep::sim::Chip chip(ppep::sim::fx8320Config(), 1);
    for (const auto *c : combinationsBySuite(GetParam())) {
        const auto cores = launch(chip, *c);
        EXPECT_EQ(cores.size(), c->instances.size()) << c->name;
    }
}

INSTANTIATE_TEST_SUITE_P(Suites, LaunchSweep,
                         ::testing::Values(SuiteId::Spec, SuiteId::Parsec,
                                           SuiteId::Npb));

} // namespace
