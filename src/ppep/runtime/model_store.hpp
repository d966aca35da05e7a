/**
 * @file
 * Content-addressed persistence for trained PPEP models.
 *
 * Training is the paper's "one-time, offline effort" per processor
 * (Sec. IV-B): a deployment trains once and every subsequent boot loads
 * the stored models. The ModelStore makes that lifecycle automatic —
 * trainOrLoad() hashes everything that determines the training outcome
 * (platform, seed, trainer version, training set) into a cache key,
 * loads a hit from disk, and trains + persists on a miss. Because the
 * model::serialization text format round-trips every double exactly, a
 * warm-cache run reproduces the cold run's decisions bit for bit.
 */

#ifndef PPEP_RUNTIME_MODEL_STORE_HPP
#define PPEP_RUNTIME_MODEL_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ppep/model/trainer.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::runtime {

/**
 * Version stamp of the offline training pipeline. Bump whenever Trainer
 * (or anything it calls) changes numerically, so stale cache entries
 * stop matching instead of silently serving old models.
 */
inline constexpr std::uint32_t kTrainerVersion = 2;

/**
 * Everything that determines a training run's output.
 *
 * The platform fingerprint covers the complete chip description —
 * topology, core microarchitecture, VF/boost tables, PG support,
 * NB-DVFS capability, interval timing, and the ground-truth power /
 * thermal / sensor constants. Two configurations that differ anywhere
 * get distinct keys even under one platform name, so a heterogeneous
 * fleet can never serve an FX-8320 model to a Phenom II session.
 */
struct ModelKey
{
    std::string platform;          ///< ChipConfig::name
    std::uint64_t fingerprint = 0; ///< digest of the visible config
    std::uint64_t seed = 0;        ///< Trainer seed
    std::uint32_t trainer_version = kTrainerVersion;
    std::uint64_t combo_digest = 0; ///< digest of the training set

    /** Single 64-bit digest over all fields. */
    std::uint64_t digest() const;

    /** Cache file name: `<platform-slug>-<digest-hex>.ppepm`. */
    std::string fileName() const;
};

/** Digests of a chip description and of a training set (exposed for
 *  tests and the fleet's model registry). */
std::uint64_t platformFingerprint(const sim::ChipConfig &cfg);
std::uint64_t
comboDigest(const std::vector<const workloads::Combination *> &combos);

/** Disk-backed cache of TrainedModels, one text file per key. */
class ModelStore
{
  public:
    /**
     * @param cache_dir directory holding the cache files; created on
     *        first store. Defaults to defaultCacheDir().
     */
    explicit ModelStore(std::string cache_dir = defaultCacheDir());

    /** `$PPEP_CACHE_DIR` when set, else `.ppep-cache`. */
    static std::string defaultCacheDir();

    const std::string &cacheDir() const { return dir_; }

    /** The key trainOrLoad() would use for this request. */
    static ModelKey
    keyFor(const sim::ChipConfig &cfg, std::uint64_t seed,
           const std::vector<const workloads::Combination *> &combos);

    /** Absolute-ish path a key resolves to inside the cache dir. */
    std::string pathFor(const ModelKey &key) const;

    /** Whether a cache file exists for the key. */
    bool contains(const ModelKey &key) const;

    /**
     * Load the models for (cfg, seed, combos) from the cache, or run
     * `Trainer(cfg, seed).trainAll(combos)` and persist the result.
     *
     * @param was_cached optional out-flag: true when the call was served
     *        from disk without training.
     */
    model::TrainedModels
    trainOrLoad(const sim::ChipConfig &cfg, std::uint64_t seed,
                const std::vector<const workloads::Combination *> &combos,
                bool *was_cached = nullptr) const;

    /** Persist models under the key (atomic replace). */
    void save(const ModelKey &key, const model::TrainedModels &models) const;

    /**
     * Process-wide count of actual Trainer runs performed by
     * trainOrLoad() (i.e. cache misses that trained). Concurrent
     * trainOrLoad() calls for one key serialise on an in-process
     * per-path lock, so this advances exactly once per distinct key per
     * process — the train-once guarantee the concurrency tests assert.
     */
    static std::uint64_t trainEvents();

    /**
     * Process-wide count of entries in the per-path lock registry
     * (test hook). The registry is bounded: idle entries are evicted
     * LRU once pathLockCapacity() is reached, while entries with a
     * live holder are never evicted (that would mint a second mutex
     * for a path someone still has locked).
     */
    static std::size_t pathLockCount();

    /** The registry's idle-entry cap. */
    static std::size_t pathLockCapacity();

  private:
    std::string dir_;
};

/**
 * The models a session or fleet governs with: @p combos filtered to the
 * ones @p cfg can host (workloads::fittingCombinations), then loaded
 * from or trained into @p store when one is given, else trained without
 * caching. @p was_cached as in ModelStore::trainOrLoad().
 */
model::TrainedModels
acquireModels(const sim::ChipConfig &cfg, std::uint64_t seed,
              const std::vector<const workloads::Combination *> &combos,
              const ModelStore *store, bool *was_cached = nullptr);

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_MODEL_STORE_HPP
