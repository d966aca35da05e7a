/**
 * @file
 * Tests for trained-model persistence: save/load round trips must be
 * prediction-exact, and malformed files must be rejected loudly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "ppep/model/serialization.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;

struct Shared
{
    sim::ChipConfig cfg = sim::fx8320Config();
    TrainedModels models;

    Shared()
    {
        Trainer trainer(cfg, 33);
        std::vector<const wl::Combination *> training;
        for (const auto &c : wl::allCombinations())
            if (c.instances.size() == 1 && training.size() < 12)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }

    static const Shared &
    get()
    {
        static const Shared s;
        return s;
    }
};

TrainedModels
roundTrip(const TrainedModels &models, const sim::ChipConfig &cfg)
{
    std::stringstream ss;
    saveModels(models, ss);
    return loadModels(ss, cfg);
}

TEST(Serialization, RoundTripPreservesScalars)
{
    const auto &s = Shared::get();
    const auto loaded = roundTrip(s.models, s.cfg);
    EXPECT_DOUBLE_EQ(loaded.alpha, s.models.alpha);
    EXPECT_DOUBLE_EQ(loaded.dynamic.trainingVoltage(),
                     s.models.dynamic.trainingVoltage());
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_DOUBLE_EQ(loaded.dynamic.weights()[i],
                         s.models.dynamic.weights()[i]);
}

TEST(Serialization, RoundTripPreservesIdlePredictions)
{
    const auto &s = Shared::get();
    const auto loaded = roundTrip(s.models, s.cfg);
    for (double v : {0.888, 1.128, 1.320})
        for (double t : {305.0, 320.0, 340.0})
            EXPECT_DOUBLE_EQ(loaded.idle.predict(v, t),
                             s.models.idle.predict(v, t));
}

TEST(Serialization, RoundTripPreservesPgComponents)
{
    const auto &s = Shared::get();
    const auto loaded = roundTrip(s.models, s.cfg);
    ASSERT_TRUE(loaded.pg.trained());
    EXPECT_EQ(loaded.pg.cuCount(), s.models.pg.cuCount());
    for (std::size_t vf = 0; vf < 5; ++vf) {
        EXPECT_DOUBLE_EQ(loaded.pg.components(vf).p_cu,
                         s.models.pg.components(vf).p_cu);
        EXPECT_DOUBLE_EQ(loaded.pg.components(vf).p_nb,
                         s.models.pg.components(vf).p_nb);
        EXPECT_DOUBLE_EQ(loaded.pg.components(vf).p_base,
                         s.models.pg.components(vf).p_base);
    }
}

/** pNbAvg()/pBaseAvg() as the averaging loop computes them. */
void
expectCachedAveragesMatchLoop(const PgIdleModel &pg)
{
    double nb = 0.0;
    double base = 0.0;
    for (const auto &c : pg.allComponents())
        nb += c.p_nb;
    for (const auto &c : pg.allComponents())
        base += c.p_base;
    const auto n = static_cast<double>(pg.allComponents().size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pg.pNbAvg()),
              std::bit_cast<std::uint64_t>(nb / n));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pg.pBaseAvg()),
              std::bit_cast<std::uint64_t>(base / n));
}

TEST(Serialization, PgAveragesCachedBitForBitAcrossRoundTrip)
{
    const auto &s = Shared::get();
    expectCachedAveragesMatchLoop(s.models.pg);
    const auto loaded = roundTrip(s.models, s.cfg);
    expectCachedAveragesMatchLoop(loaded.pg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.pg.pNbAvg()),
              std::bit_cast<std::uint64_t>(s.models.pg.pNbAvg()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.pg.pBaseAvg()),
              std::bit_cast<std::uint64_t>(s.models.pg.pBaseAvg()));
}

TEST(Serialization, RoundTripPreservesChipEstimates)
{
    // End to end: a loaded model must produce bit-identical power
    // estimates on a real interval.
    const auto &s = Shared::get();
    const auto loaded = roundTrip(s.models, s.cfg);

    sim::Chip chip(s.cfg, 5);
    wl::launch(chip, wl::replicate("433.milc", 2), true);
    ppep::trace::Collector col(chip);
    col.collect(2);
    const auto rec = col.collectInterval();

    for (std::size_t vf = 0; vf < 5; ++vf) {
        EXPECT_DOUBLE_EQ(loaded.chip.predictAt(rec, vf).total_w,
                         s.models.chip.predictAt(rec, vf).total_w)
            << "VF index " << vf;
    }
    EXPECT_DOUBLE_EQ(loaded.gg.estimate(rec, s.cfg.vf_table),
                     s.models.gg.estimate(rec, s.cfg.vf_table));
}

TEST(Serialization, FileRoundTrip)
{
    const auto &s = Shared::get();
    const std::string path = ppep::test::tempPath("models.txt");
    saveModels(s.models, path);
    const auto loaded = loadModels(path, s.cfg);
    EXPECT_DOUBLE_EQ(loaded.alpha, s.models.alpha);
    std::remove(path.c_str());
}

TEST(Serialization, CommentsAndBlankLinesTolerated)
{
    const auto &s = Shared::get();
    std::stringstream ss;
    saveModels(s.models, ss);
    std::string text = ss.str();
    // Inject comments/blank lines after the header.
    const auto pos = text.find('\n');
    text.insert(pos + 1, "# a comment\n\n");
    std::stringstream edited(text);
    const auto loaded = loadModels(edited, s.cfg);
    EXPECT_DOUBLE_EQ(loaded.alpha, s.models.alpha);
}

TEST(SerializationDeath, BadMagicRejected)
{
    const auto &s = Shared::get();
    std::stringstream ss("not-a-model-file 1\n");
    EXPECT_DEATH(loadModels(ss, s.cfg), "bad magic");
}

TEST(SerializationDeath, BadVersionRejected)
{
    const auto &s = Shared::get();
    std::stringstream ss("ppep-models 999\n");
    EXPECT_DEATH(loadModels(ss, s.cfg), "version");
}

TEST(SerializationDeath, TruncatedFileRejected)
{
    const auto &s = Shared::get();
    std::stringstream full;
    saveModels(s.models, full);
    const std::string text = full.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    // Depending on where the cut lands this dies as "unexpected end of
    // file", a short-line assert, or a count mismatch — any loud death
    // is the contract.
    EXPECT_DEATH(loadModels(truncated, s.cfg), "");
}

TEST(SerializationDeath, WrongKeywordRejected)
{
    const auto &s = Shared::get();
    std::stringstream ss;
    saveModels(s.models, ss);
    std::string text = ss.str();
    const auto pos = text.find("alpha");
    text.replace(pos, 5, "gamma");
    std::stringstream edited(text);
    EXPECT_DEATH(loadModels(edited, s.cfg), "expected 'alpha'");
}

TEST(SerializationDeath, CuCountMismatchRejected)
{
    const auto &s = Shared::get();
    std::stringstream ss;
    saveModels(s.models, ss);
    const auto phenom = sim::phenomIIConfig(); // 6 CUs, models have 4
    EXPECT_DEATH(loadModels(ss, phenom), "CU");
}

TEST(SerializationDeath, SavingUntrainedModelsRejected)
{
    TrainedModels empty;
    std::stringstream ss;
    EXPECT_DEATH(saveModels(empty, ss), "untrained");
}

} // namespace
