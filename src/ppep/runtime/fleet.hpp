/**
 * @file
 * Fleet-scale parallel runtime: N independent governed sessions over a
 * small immutable registry of trained models, executed on a fixed-size
 * thread pool.
 *
 * Fleets may be heterogeneous: each session can bring its own
 * ChipConfig (an FX-8320 next to a Phenom II next to an NB-DVFS
 * variant). The expensive, shareable state — TrainedModels and the
 * assembled Ppep (with its precomputed per-VF plan) — is acquired
 * exactly once per *distinct* configuration on the calling thread:
 * prepare() resolves every session's config to a registry entry keyed
 * by the ModelStore platform fingerprint, training each entry once and
 * sharing it between all sessions whose configs hash identically.
 * Every session then holds const references to its entry
 * (Session::Builder::sharedModels). Everything mutable (Chip, Sampler,
 * Governor, RNG streams, telemetry sinks) is per-session, so sessions
 * never synchronise with each other while governing.
 *
 * Determinism contract: a session's telemetry stream is a pure
 * function of its spec (config, seed, jobs, governor, schedule, fault
 * plan, tenants). The thread pool only changes *when* a session runs,
 * never what it computes, so per-session results are bit-identical at
 * any thread count — including serial. test_runtime_fleet asserts this
 * with DigestSink digests, for homogeneous and mixed fleets alike.
 */

#ifndef PPEP_RUNTIME_FLEET_HPP
#define PPEP_RUNTIME_FLEET_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/runtime/arbiter.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/recorder.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/replay.hpp"

namespace ppep::runtime {

/** One session's overrides within a fleet. */
struct FleetSessionSpec
{
    /** Label in results; defaults to "s<index>" when empty. */
    std::string name;
    /** Chip RNG seed — the per-session deterministic stream root. */
    std::uint64_t seed = 1;
    /** Power gating on this session's chip. */
    bool pg = false;
    /** Explicit pinned jobs. */
    std::vector<Session::JobSpec> jobs;
    /** Convenience placement: program i on the first core of CU i. */
    std::vector<std::string> one_per_cu;
    /** Policy; empty falls back to the fleet default (EDP). */
    GovernorFactory governor;
    /** Cap schedule; nullopt falls back to the fleet default. */
    std::optional<ppep::governor::CapSchedule> schedule;
    /** Per-session fault plan (hardened path); nullopt = plain. */
    std::optional<sim::FaultPlan> faults;
    /** Fault stream seed; nullopt derives from the chip seed. */
    std::optional<std::uint64_t> fault_seed;
    /** Per-session online recalibration; nullopt falls back to the
     *  fleet default (which may itself be off). */
    std::optional<RecalibrationPolicy> recalibration;
    /**
     * This session's chip; nullopt inherits the fleet default. Sessions
     * whose configs fingerprint identically share one trained-model
     * registry entry; a distinct config gets its own models, so an
     * FX-8320 model is never served to a Phenom II session.
     */
    std::optional<sim::ChipConfig> cfg;
    /** Tenants sharing this session's chip; empty = no attribution.
     *  Validated against the session's own config at build(). */
    std::vector<TenantSpec> tenants;
    /** Arbitration weight (FleetSpec::arbiter); 0 removes the session
     *  from the budget sweep entirely. */
    double priority = 1.0;
    /** Arbitration SLO floor: never cap this session below this many
     *  watts unless the floors alone are infeasible. */
    double slo_floor_w = 0.0;
    /** Arbitration tier; nullopt = round-robin over the spec's tiers. */
    std::optional<std::size_t> tier;
};

/** Shared fleet configuration plus the per-session specs. */
struct FleetSpec
{
    /** Default chip description for sessions without their own cfg. */
    sim::ChipConfig cfg;
    /** Trainer seed for the shared models (all registry entries). */
    std::uint64_t training_seed = 42;
    /** Acquire models through this cache; nullopt trains fresh. */
    std::optional<ModelStore> store;
    /** Training set; nullopt = all single-program combinations. Each
     *  platform trains on the ones it can host (acquireModels). */
    std::optional<std::vector<const workloads::Combination *>>
        training_combos;
    /** Fleet-default policy; empty = EDP-optimal. */
    GovernorFactory default_governor;
    /** Fleet-default cap schedule; nullopt = unlimited. */
    std::optional<ppep::governor::CapSchedule> default_schedule;
    /** Fleet-default recalibration; nullopt = off. Sessions running
     *  with a store() also journal adoptions to its lineage log. */
    std::optional<RecalibrationPolicy> default_recalibration;
    /** Warm-up intervals per session. */
    std::size_t warmup = 0;
    /** Governed intervals per session. */
    std::size_t intervals = 40;
    /** When non-empty, write one CSV trace per session into this
     *  directory (`<name>.csv`), created on demand. */
    std::string csv_dir;
    /** When non-empty, record every session's governed interval stream
     *  into this replay file (written after the run completes). */
    std::string record_path;
    /** When non-empty, drive every session from the stream of the same
     *  name in this replay file: zero simulation, mmap ingest. The
     *  file's platform fingerprints must match the sessions' configs.
     *  Incompatible with record_path. */
    std::string replay_path;
    /**
     * Fleet-level power-budget arbitration: when set, the fleet drives
     * every session in lockstep and a BudgetArbiter (or the iterative
     * baseline) redistributes per-session caps from the sessions' own
     * per-VF predictions on a deterministic barrier every interval.
     * Telemetry stays bit-identical at any thread count.
     */
    std::optional<ArbiterSpec> arbiter;
    /** The sessions to run. */
    std::vector<FleetSessionSpec> sessions;
};

/** One session's outcome. */
struct FleetSessionResult
{
    std::string name;
    std::uint64_t seed = 0;
    /** False when the session threw; error carries the reason. */
    bool completed = false;
    std::string error;
    /** End-of-run aggregates (meaningful when completed). */
    SummarySink::Summary summary;
    /** DigestSink digest over the deterministic telemetry stream —
     *  the cross-thread bit-identity witness. */
    std::uint64_t telemetry_digest = 0;
    /** Governed intervals run. */
    std::size_t intervals = 0;
    /** Failed-sink errors surfaced by the session. */
    std::vector<std::string> sink_errors;
    /** Wall-clock cost of this session, seconds. */
    double wall_s = 0.0;
    // --- arbitration telemetry (meaningful when the fleet arbitrates
    // --- under a finite budget) --------------------------------------
    /** Mean watt cap allocated to this session per interval. */
    double mean_cap_w = 0.0;
    /** Cap in force after the final interval. */
    double final_cap_w = std::numeric_limits<double>::max();
    /** Mean watts denied per interval (demand minus allocation). */
    double mean_throttled_w = 0.0;
    /** Per-tenant share of the throttled watts, split in proportion to
     *  each tenant's attributed power (summary.tenant_names order). */
    std::vector<double> tenant_throttled_w;
};

/** Fleet rollup (specs order preserved in sessions). */
struct FleetResult
{
    std::vector<FleetSessionResult> sessions;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t total_intervals = 0;
    /** Wall-clock of the whole run() call, seconds. */
    double wall_s = 0.0;
    double sessions_per_s = 0.0;
    double intervals_per_s = 0.0;
    /** Mean of completed sessions' mean power, watts. */
    double mean_power_w = 0.0;
    /** Total energy across completed sessions, joules. */
    double energy_j = 0.0;
    /** Arbitration rollup; arbiter.active is false when the fleet ran
     *  without one. */
    ArbiterReport arbiter;
};

/**
 * Runs a FleetSpec on a fixed-size worker pool. Workers pull session
 * indices from a shared atomic counter; each session is built, driven
 * and torn down entirely on one worker. A session that throws is
 * recorded as failed without taking the pool down.
 */
class Fleet
{
  public:
    explicit Fleet(FleetSpec spec);

    /**
     * Build the model registry (train, or load through the store) on
     * the calling thread: one entry per distinct platform fingerprint
     * among the sessions' configs, resolved once and immutable for the
     * fleet's lifetime. Idempotent; run() calls it implicitly.
     */
    void prepare();

    /** Models/predictor of the fleet-default config's entry; fatal
     *  when no session uses the default config. prepare() first. */
    const model::TrainedModels &models() const;
    const model::Ppep &ppep() const;

    /** Distinct trained configurations in the registry. */
    std::size_t modelEntryCount() const;

    /** Registry entry index serving session @p index — sessions with
     *  fingerprint-identical configs report the same index. */
    std::size_t entryIndexOf(std::size_t index) const;

    /** The predictor serving session @p index (sharing witness). */
    const model::Ppep &ppepOf(std::size_t index) const;

    /** The spec in force. */
    const FleetSpec &spec() const { return spec_; }

    /**
     * Run every session on @p n_threads workers (clamped to
     * [1, sessions]). Per-session results are bit-identical at any
     * thread count.
     */
    FleetResult run(std::size_t n_threads);

  private:
    /** One immutable registry entry: a distinct chip configuration
     *  with its trained models and assembled predictor. */
    struct ModelEntry
    {
        sim::ChipConfig cfg;
        std::uint64_t fingerprint = 0;
        model::TrainedModels models;
        std::optional<model::Ppep> ppep;
    };

    /** Per-session sinks + session, shared by the free-running and
     *  arbitrated drives (defined in fleet.cpp). */
    struct Harness;

    FleetSessionResult runOne(std::size_t index);
    /** Build sinks and the session for session @p index into @p h;
     *  h.session is set last, so it is present only when the build
     *  completed. */
    void buildHarness(std::size_t index, Harness &h);
    /** Close sinks and collect the session's outcome into h.res. */
    void finishHarness(Harness &h);
    /** The barrier-arbitrated lockstep drive (spec_.arbiter). */
    FleetResult runArbitrated(std::size_t n_threads);
    /** Rollup + throughput + record-file assembly shared by both
     *  drive paths. */
    void finalizeRun(FleetResult &out, double wall_s);
    const ModelEntry &entryOf(std::size_t index) const;

    FleetSpec spec_;
    /** unique_ptr slots keep entry addresses stable while the registry
     *  grows, so sessions can hold references across prepare(). */
    std::vector<std::unique_ptr<ModelEntry>> entries_;
    /** Session index -> registry entry index. */
    std::vector<std::size_t> session_entry_;
    /** Entry matching spec_.cfg, or npos when no session uses it. */
    std::size_t default_entry_ = static_cast<std::size_t>(-1);
    /** Record mode: one stream builder per session, assembled into
     *  spec_.record_path after the run. Slots are index-owned, so
     *  workers never touch each other's. */
    std::vector<std::unique_ptr<RecorderSink>> recorders_;
    /** Replay mode: the mmap'd file, opened once per run; workers read
     *  it concurrently (the mapping is immutable). */
    std::unique_ptr<trace::ReplayFile> replay_file_;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_FLEET_HPP
