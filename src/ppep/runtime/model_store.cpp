#include "ppep/runtime/model_store.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <list>
#include <memory>
#include <unordered_map>

#include "ppep/model/serialization.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/util/sync.hpp"

namespace ppep::runtime {

namespace fs = std::filesystem;

namespace {

std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    // Length-prefix so {"ab","c"} and {"a","bc"} hash differently.
    const std::uint64_t len = s.size();
    h = util::fnv1a(&len, sizeof(len), h);
    return util::fnv1a(s.data(), s.size(), h);
}

std::uint64_t
mixDouble(std::uint64_t h, double d)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return util::fnv1a(&bits, sizeof(bits), h);
}

std::uint64_t
mixU64(std::uint64_t h, std::uint64_t v)
{
    return util::fnv1a(&v, sizeof(v), h);
}

std::uint64_t
mixVf(std::uint64_t h, const sim::VfState &vf)
{
    h = mixDouble(h, vf.voltage);
    return mixDouble(h, vf.freq_ghz);
}

std::atomic<std::uint64_t> g_train_events{0};

/**
 * Bounded registry of per-path locks. Concurrent trainOrLoad() calls
 * for the same key serialise on one lock: the first caller trains and
 * publishes, later callers load the published file — exactly-once
 * training per key per process. Distinct keys proceed in parallel.
 * (Cross-process racers are still safe via write-then-rename; they may
 * train redundantly but never corrupt the cache.)
 *
 * Bounded because a long-lived fleet process touches a fresh path per
 * (platform, seed, training-set) tuple: an unbounded map would grow for
 * process lifetime. acquire() hands out shared_ptr handles and evicts
 * cold entries only when the registry alone holds the reference
 * (use_count() == 1), so an evicted path can never have a live holder —
 * a re-acquire minting a fresh mutex while the old one is still locked
 * would silently break per-path exclusion.
 *
 * Lock order (encoded with PPEP_EXCLUDES): the registry lock mu_ is
 * always taken first and dropped before the per-path lock is taken;
 * acquire() only returns a handle, it never locks it.
 */
class PathLockRegistry
{
  public:
    /** Registry cap; live holders can push the size past it (eviction
     *  never sacrifices exclusion), but idle entries stay below it. */
    static constexpr std::size_t kCapacity = 64;

    static PathLockRegistry &instance()
    {
        static PathLockRegistry reg;
        return reg;
    }

    /**
     * The lock handle for @p path. Hold the shared_ptr for the whole
     * lock()..unlock() window: the live reference pins the entry
     * against eviction, so every holder of one path shares one mutex.
     */
    std::shared_ptr<util::Mutex> acquire(const std::string &path)
        PPEP_EXCLUDES(mu_)
    {
        util::MutexLock g(mu_);
        const auto it = map_.find(path);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.pos);
            return it->second.lock;
        }
        evictIfFull();
        lru_.push_front(path);
        auto lock = std::make_shared<util::Mutex>();
        map_.emplace(path, Entry{lock, lru_.begin()});
        return lock;
    }

    /** Current entry count (test hook). */
    std::size_t size() const PPEP_EXCLUDES(mu_)
    {
        util::MutexLock g(mu_);
        return map_.size();
    }

  private:
    struct Entry
    {
        std::shared_ptr<util::Mutex> lock;
        std::list<std::string>::iterator pos;
    };

    void evictIfFull() PPEP_REQUIRES(mu_)
    {
        if (map_.size() < kCapacity)
            return;
        // Walk from the cold end and drop the first entry nobody
        // holds (the registry's own reference is the use_count()==1).
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            const auto m = map_.find(*it);
            if (m->second.lock.use_count() == 1) {
                map_.erase(m);
                lru_.erase(std::next(it).base());
                return;
            }
        }
        // Every entry has a live holder: more in-flight paths than the
        // cap. Grow past it rather than break exclusion.
    }

    mutable util::Mutex mu_;
    std::unordered_map<std::string, Entry> map_ PPEP_GUARDED_BY(mu_);
    /** Eviction order, most recently used first. */
    std::list<std::string> lru_ PPEP_GUARDED_BY(mu_);
};

/** The process-wide per-path lock handle for @p path. */
std::shared_ptr<util::Mutex>
pathLockFor(const std::string &path)
{
    return PathLockRegistry::instance().acquire(path);
}

} // namespace

std::uint64_t
platformFingerprint(const sim::ChipConfig &cfg)
{
    // Cover the ENTIRE chip description, ground truth included: two
    // silicon configurations that differ anywhere must never share a
    // cache entry, even when they share a platform name. An FX-8320
    // model served to a Phenom II session would predict garbage; a
    // stale-fingerprint hit is strictly worse than a retrain.
    std::uint64_t h = util::kFnvOffsetBasis;
    h = mixU64(h, cfg.n_cus);
    h = mixU64(h, cfg.cores_per_cu);
    h = mixDouble(h, cfg.issue_width);
    h = mixDouble(h, cfg.mispredict_penalty);
    h = mixU64(h, cfg.pg_supported ? 1 : 0);
    h = mixU64(h, cfg.nb_dvfs_capable ? 1 : 0);
    h = mixU64(h, cfg.per_cu_voltage ? 1 : 0);
    h = mixDouble(h, cfg.tick_s);
    h = mixU64(h, cfg.ticks_per_interval);
    h = mixU64(h, cfg.vf_table.size());
    for (std::size_t i = 0; i < cfg.vf_table.size(); ++i)
        h = mixVf(h, cfg.vf_table.state(i));
    h = mixU64(h, cfg.boost_states.size());
    for (const auto &vf : cfg.boost_states)
        h = mixVf(h, vf);
    h = mixDouble(h, cfg.boost_temp_limit_k);
    h = mixU64(h, cfg.boost_max_busy_cus);

    const sim::GroundTruthPower &p = cfg.power;
    for (double e : p.event_energy_nj)
        h = mixDouble(h, e);
    h = mixDouble(h, p.alpha_true);
    h = mixDouble(h, p.busy_cycle_energy_nj);
    h = mixDouble(h, p.cu_clock_coeff);
    h = mixDouble(h, p.cu_leak_ref_w);
    h = mixDouble(h, p.leak_volt_k);
    h = mixDouble(h, p.leak_temp_k);
    h = mixDouble(h, p.leak_temp_ref_k);
    h = mixDouble(h, p.nb_leak_ref_w);
    h = mixDouble(h, p.nb_clock_coeff);
    h = mixDouble(h, p.l3_access_energy_nj);
    h = mixDouble(h, p.dram_access_energy_nj);
    h = mixDouble(h, p.base_power_w);
    h = mixDouble(h, p.pg_residual);
    h = mixDouble(h, p.housekeeping_w);
    h = mixDouble(h, p.phase_activity_sd);

    h = mixDouble(h, cfg.thermal.ambient_k);
    h = mixDouble(h, cfg.thermal.resistance_k_per_w);
    h = mixDouble(h, cfg.thermal.time_constant_s);
    h = mixDouble(h, cfg.thermal.diode_quantum_k);

    h = mixDouble(h, cfg.sensor.noise_fraction);
    h = mixDouble(h, cfg.sensor.noise_floor_w);
    h = mixDouble(h, cfg.sensor.quantum_w);

    h = mixVf(h, cfg.nb.vf_hi);
    h = mixVf(h, cfg.nb.vf_lo);
    h = mixDouble(h, cfg.nb.l3_latency_cycles);
    h = mixDouble(h, cfg.nb.dram_fixed_ns);
    h = mixDouble(h, cfg.nb.mc_latency_cycles);
    h = mixDouble(h, cfg.nb.dram_bw_gbs);
    h = mixDouble(h, cfg.nb.line_bytes);
    h = mixDouble(h, cfg.nb.max_utilization);
    h = mixDouble(h, cfg.nb.mlp_collapse);

    for (double s : cfg.event_freq_sens)
        h = mixDouble(h, s);
    h = mixDouble(h, cfg.rate_jitter_sd);
    h = mixU64(h, cfg.pmc_counters);
    return h;
}

std::uint64_t
comboDigest(const std::vector<const workloads::Combination *> &combos)
{
    std::uint64_t h = util::kFnvOffsetBasis;
    h = mixU64(h, combos.size());
    for (const auto *c : combos) {
        PPEP_ASSERT(c != nullptr, "null training combination");
        h = mixString(h, c->name);
        h = mixU64(h, c->instances.size());
        for (const auto &inst : c->instances)
            h = mixString(h, inst);
    }
    return h;
}

std::uint64_t
ModelKey::digest() const
{
    std::uint64_t h = util::kFnvOffsetBasis;
    h = mixString(h, platform);
    h = mixU64(h, fingerprint);
    h = mixU64(h, seed);
    h = mixU64(h, trainer_version);
    h = mixU64(h, combo_digest);
    return h;
}

std::string
ModelKey::fileName() const
{
    // Platform slug keeps the cache human-navigable; the digest keeps it
    // collision-safe.
    std::string slug;
    for (char c : platform) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            slug += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!slug.empty() && slug.back() != '-')
            slug += '-';
    }
    while (!slug.empty() && slug.back() == '-')
        slug.pop_back();
    if (slug.empty())
        slug = "platform";

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest()));
    return slug + "-" + hex + ".ppepm";
}

ModelStore::ModelStore(std::string cache_dir) : dir_(std::move(cache_dir))
{
    PPEP_ASSERT(!dir_.empty(), "cache dir must be non-empty");
}

std::string
ModelStore::defaultCacheDir()
{
    if (const char *env = std::getenv("PPEP_CACHE_DIR"); env && *env)
        return env;
    return ".ppep-cache";
}

ModelKey
ModelStore::keyFor(const sim::ChipConfig &cfg, std::uint64_t seed,
                   const std::vector<const workloads::Combination *> &combos)
{
    ModelKey key;
    key.platform = cfg.name;
    key.fingerprint = platformFingerprint(cfg);
    key.seed = seed;
    key.trainer_version = kTrainerVersion;
    key.combo_digest = comboDigest(combos);
    return key;
}

std::string
ModelStore::pathFor(const ModelKey &key) const
{
    return (fs::path(dir_) / key.fileName()).string();
}

bool
ModelStore::contains(const ModelKey &key) const
{
    std::error_code ec;
    return fs::is_regular_file(pathFor(key), ec);
}

void
ModelStore::save(const ModelKey &key, const model::TrainedModels &models) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        PPEP_FATAL("cannot create model cache dir '", dir_,
                   "': ", ec.message());

    // Write-then-rename: a crashed or concurrent writer never leaves a
    // half-written cache entry where a reader can find it.
    const std::string final_path = pathFor(key);
    const std::string tmp_path = final_path + ".tmp";
    model::saveModels(models, tmp_path);
    fs::rename(tmp_path, final_path, ec);
    if (ec)
        PPEP_FATAL("cannot publish model cache entry '", final_path,
                   "': ", ec.message());
}

model::TrainedModels
ModelStore::trainOrLoad(
    const sim::ChipConfig &cfg, std::uint64_t seed,
    const std::vector<const workloads::Combination *> &combos,
    bool *was_cached) const
{
    const ModelKey key = keyFor(cfg, seed, combos);
    const std::string path = pathFor(key);
    const auto path_mu = pathLockFor(path);
    util::MutexLock lock(*path_mu);
    if (contains(key)) {
        if (was_cached)
            *was_cached = true;
        return model::loadModels(path, cfg);
    }
    if (was_cached)
        *was_cached = false;
    ++g_train_events;
    model::Trainer trainer(cfg, seed);
    model::TrainedModels models = trainer.trainAll(combos);
    save(key, models);
    return models;
}

model::TrainedModels
acquireModels(const sim::ChipConfig &cfg, std::uint64_t seed,
              const std::vector<const workloads::Combination *> &combos,
              const ModelStore *store, bool *was_cached)
{
    const auto fitting =
        workloads::fittingCombinations(combos, cfg.coreCount());
    if (store)
        return store->trainOrLoad(cfg, seed, fitting, was_cached);
    if (was_cached)
        *was_cached = false;
    return model::Trainer(cfg, seed).trainAll(fitting);
}


std::uint64_t
ModelStore::trainEvents()
{
    return g_train_events.load();
}

std::size_t
ModelStore::pathLockCount()
{
    return PathLockRegistry::instance().size();
}

std::size_t
ModelStore::pathLockCapacity()
{
    return PathLockRegistry::kCapacity;
}

} // namespace ppep::runtime
