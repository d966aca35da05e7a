/**
 * @file
 * Tests for the content-addressed model cache: keys must change with
 * anything that changes the training outcome, cache round trips must be
 * prediction-exact, and the cold/warm lifecycle must behave.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "ppep/model/ppep.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
using runtime::ModelKey;
using runtime::ModelStore;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

std::string
freshCacheDir(const std::string &tag)
{
    const std::string dir = test::tempPath("store_" + tag);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ModelKey, ChangesWithSeed)
{
    const auto cfg = sim::fx8320Config();
    const auto combos = smallTrainingSet();
    const auto a = ModelStore::keyFor(cfg, 1, combos);
    const auto b = ModelStore::keyFor(cfg, 2, combos);
    EXPECT_NE(a.digest(), b.digest());
    EXPECT_NE(a.fileName(), b.fileName());
}

TEST(ModelKey, ChangesWithPlatform)
{
    const auto combos = smallTrainingSet();
    const auto fx = ModelStore::keyFor(sim::fx8320Config(), 1, combos);
    const auto phenom =
        ModelStore::keyFor(sim::phenomIIConfig(), 1, combos);
    EXPECT_NE(fx.digest(), phenom.digest());

    // A visible config tweak on the same platform name must also miss:
    // per-CU voltage planes change what training measures.
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    const auto planes = ModelStore::keyFor(cfg, 1, combos);
    EXPECT_NE(fx.digest(), planes.digest());
    EXPECT_NE(fx.fingerprint, planes.fingerprint);
}

TEST(ModelKey, DistinctEntriesPerFleetConfig)
{
    // Every platform a heterogeneous fleet can mix must land on its
    // own cache entry — an FX-8320 model must never be served to a
    // Phenom II (or NB-DVFS-variant) session.
    const auto combos = smallTrainingSet();
    const sim::ChipConfig cfgs[] = {
        sim::fx8320Config(),
        sim::fx8320ConfigWithBoost(),
        sim::fx8320NbDvfsConfig(),
        sim::phenomIIConfig(),
    };
    for (std::size_t a = 0; a < std::size(cfgs); ++a)
        for (std::size_t b = a + 1; b < std::size(cfgs); ++b)
            EXPECT_NE(ModelStore::keyFor(cfgs[a], 1, combos).digest(),
                      ModelStore::keyFor(cfgs[b], 1, combos).digest())
                << cfgs[a].name << " vs " << cfgs[b].name;
}

TEST(ModelKey, ChangesWithGroundTruthPower)
{
    // The fingerprint covers the full chip description, ground truth
    // included: a recalibrated simulator must retrain rather than be
    // served models fit against the old power surface.
    const auto combos = smallTrainingSet();
    const auto base =
        ModelStore::keyFor(sim::fx8320Config(), 1, combos);

    auto cfg = sim::fx8320Config();
    cfg.power.base_power_w += 0.5;
    EXPECT_NE(base.fingerprint,
              ModelStore::keyFor(cfg, 1, combos).fingerprint);

    cfg = sim::fx8320Config();
    cfg.nb_dvfs_capable = true;
    EXPECT_NE(base.fingerprint,
              ModelStore::keyFor(cfg, 1, combos).fingerprint);
}

TEST(ModelKey, ChangesWithTrainingSet)
{
    const auto cfg = sim::fx8320Config();
    const auto a = ModelStore::keyFor(cfg, 1, smallTrainingSet(8));
    const auto b = ModelStore::keyFor(cfg, 1, smallTrainingSet(9));
    EXPECT_NE(a.digest(), b.digest());
    EXPECT_NE(a.combo_digest, b.combo_digest);
}

TEST(ModelKey, StableForIdenticalRequests)
{
    const auto cfg = sim::fx8320Config();
    const auto a = ModelStore::keyFor(cfg, 7, smallTrainingSet());
    const auto b = ModelStore::keyFor(cfg, 7, smallTrainingSet());
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.fileName(), b.fileName());
}

TEST(ModelKey, FileNameIsSlugged)
{
    const auto key =
        ModelStore::keyFor(sim::fx8320Config(), 1, smallTrainingSet());
    // "AMD FX-8320 (simulated)" -> lower-case slug, no spaces/parens.
    EXPECT_EQ(key.fileName().find("amd-fx-8320-simulated-"), 0u);
    EXPECT_NE(key.fileName().find(".ppepm"), std::string::npos);
}

TEST(ModelStore, DefaultCacheDirHonoursEnv)
{
    ::setenv("PPEP_CACHE_DIR", "/tmp/ppep-env-cache", 1);
    EXPECT_EQ(ModelStore::defaultCacheDir(), "/tmp/ppep-env-cache");
    ::unsetenv("PPEP_CACHE_DIR");
    EXPECT_EQ(ModelStore::defaultCacheDir(), ".ppep-cache");
}

TEST(ModelStore, TrainOrLoadLifecycle)
{
    const auto cfg = sim::fx8320Config();
    const auto combos = smallTrainingSet();
    const ModelStore store(freshCacheDir("lifecycle"));
    const auto key = ModelStore::keyFor(cfg, 33, combos);
    EXPECT_FALSE(store.contains(key));

    bool cached = true;
    const auto trained = store.trainOrLoad(cfg, 33, combos, &cached);
    EXPECT_FALSE(cached);
    EXPECT_TRUE(store.contains(key));

    bool cached2 = false;
    const auto loaded = store.trainOrLoad(cfg, 33, combos, &cached2);
    EXPECT_TRUE(cached2);

    // The warm-cache copy must predict bit-identically to the freshly
    // trained one — the property that makes cached daemon runs replay
    // the cold run's decision trace exactly.
    sim::Chip chip(cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 2), true);
    trace::Collector col(chip);
    col.collect(2);
    const auto rec = col.collectInterval();

    const model::Ppep ppep_a(cfg, trained.chip, trained.pg);
    const model::Ppep ppep_b(cfg, loaded.chip, loaded.pg);
    const auto pa = ppep_a.explore(rec);
    const auto pb = ppep_b.explore(rec);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t vf = 0; vf < pa.size(); ++vf) {
        EXPECT_DOUBLE_EQ(pa[vf].chip_power_w, pb[vf].chip_power_w);
        EXPECT_DOUBLE_EQ(pa[vf].total_ips, pb[vf].total_ips);
        EXPECT_DOUBLE_EQ(pa[vf].energy_per_inst, pb[vf].energy_per_inst);
        EXPECT_DOUBLE_EQ(pa[vf].edp_per_inst, pb[vf].edp_per_inst);
    }
    EXPECT_DOUBLE_EQ(loaded.alpha, trained.alpha);
}

TEST(ModelStore, DifferentSeedMissesCache)
{
    const auto cfg = sim::fx8320Config();
    const auto combos = smallTrainingSet();
    const ModelStore store(freshCacheDir("seed_miss"));

    bool cached = true;
    (void)store.trainOrLoad(cfg, 33, combos, &cached);
    EXPECT_FALSE(cached);

    // Same platform, same combos, different seed: must retrain.
    bool cached2 = true;
    (void)store.trainOrLoad(cfg, 34, combos, &cached2);
    EXPECT_FALSE(cached2);
    EXPECT_TRUE(store.contains(ModelStore::keyFor(cfg, 33, combos)));
    EXPECT_TRUE(store.contains(ModelStore::keyFor(cfg, 34, combos)));
}

TEST(ModelStore, ConcurrentTrainOrLoadTrainsOnce)
{
    const auto cfg = sim::fx8320Config();
    const auto combos = smallTrainingSet();
    const ModelStore store(freshCacheDir("concurrent"));

    const auto events_before = ModelStore::trainEvents();
    constexpr std::size_t kThreads = 4;
    std::vector<model::TrainedModels> results(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            results[t] = store.trainOrLoad(cfg, 77, combos);
        });
    for (auto &th : pool)
        th.join();

    // All racers asked for the same key: exactly one may pay for
    // training; the rest must be served the identical artifact.
    EXPECT_EQ(ModelStore::trainEvents() - events_before, 1u);
    EXPECT_TRUE(store.contains(ModelStore::keyFor(cfg, 77, combos)));

    sim::Chip chip(cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 2), true);
    trace::Collector col(chip);
    col.collect(2);
    const auto rec = col.collectInterval();

    const model::Ppep ref(cfg, results[0].chip, results[0].pg);
    const auto pr = ref.explore(rec);
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_DOUBLE_EQ(results[t].alpha, results[0].alpha);
        const model::Ppep ppep(cfg, results[t].chip, results[t].pg);
        const auto pt = ppep.explore(rec);
        ASSERT_EQ(pt.size(), pr.size());
        for (std::size_t vf = 0; vf < pt.size(); ++vf) {
            EXPECT_DOUBLE_EQ(pt[vf].chip_power_w, pr[vf].chip_power_w);
            EXPECT_DOUBLE_EQ(pt[vf].energy_per_inst,
                             pr[vf].energy_per_inst);
        }
    }
}

TEST(ModelStore, ConcurrentMixedFleetTrainsEachConfigOnce)
{
    // A heterogeneous fleet's prepare() path: racing trainOrLoad calls
    // for three distinct platforms must pay for exactly one training
    // per platform, and every racer of a platform must be served the
    // bit-identical artifact.
    const auto combos = smallTrainingSet();
    const ModelStore store(freshCacheDir("mixed_concurrent"));
    const sim::ChipConfig cfgs[] = {
        sim::fx8320Config(),
        sim::fx8320NbDvfsConfig(),
        sim::phenomIIConfig(),
    };

    const auto events_before = ModelStore::trainEvents();
    constexpr std::size_t kThreads = 6; // two racers per platform
    std::vector<model::TrainedModels> results(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            results[t] =
                store.trainOrLoad(cfgs[t % std::size(cfgs)], 91, combos);
        });
    for (auto &th : pool)
        th.join();

    EXPECT_EQ(ModelStore::trainEvents() - events_before,
              std::size(cfgs));
    for (const auto &cfg : cfgs)
        EXPECT_TRUE(store.contains(ModelStore::keyFor(cfg, 91, combos)))
            << cfg.name;

    // Racers that asked for the same platform got the same models;
    // racers of different platforms did not.
    for (std::size_t c = 0; c < std::size(cfgs); ++c) {
        EXPECT_DOUBLE_EQ(results[c].alpha,
                         results[c + std::size(cfgs)].alpha);
        EXPECT_EQ(results[c].dynamic.weights(),
                  results[c + std::size(cfgs)].dynamic.weights());
    }
    EXPECT_NE(results[0].dynamic.weights(),
              results[2].dynamic.weights()); // FX vs Phenom
}

TEST(ModelStore, PathLockRegistryStaysBounded)
{
    const std::size_t cap = ModelStore::pathLockCapacity();
    ASSERT_GT(cap, 0u);

    // Touch far more distinct lock paths than the cap: every store's
    // lineage journal locks its own path, and nobody holds a handle
    // between calls, so idle entries must be evicted down to the cap.
    for (std::size_t i = 0; i < cap * 3; ++i) {
        const ModelStore store(
            freshCacheDir("lockreg_" + std::to_string(i)));
        (void)store.lineageLines();
    }
    EXPECT_LE(ModelStore::pathLockCount(), cap);
    EXPECT_GE(ModelStore::pathLockCount(), 1u);

    // Bounding must not sacrifice per-path exclusion: concurrent
    // appends to one journal still serialise and lose no lines.
    const ModelStore store(freshCacheDir("lockreg_exclusion"));
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kAppends = 8;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&store, t] {
            for (std::size_t i = 0; i < kAppends; ++i)
                store.appendLineage("platform", 1,
                                    t * kAppends + i, 0, 1, "test", i,
                                    0.5, 1.0);
        });
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(store.lineageLines().size(), kThreads * kAppends);
}

TEST(ModelStore, Fnv1aMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(util::fnv1a("", 0), 14695981039346656037ull);
    EXPECT_EQ(util::fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(util::fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

} // namespace
