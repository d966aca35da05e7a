/**
 * @file
 * One governed run, end to end, behind a builder.
 *
 * A Session bundles what every governed experiment in this repo used to
 * assemble by hand: chip construction + seeding, job placement, model
 * acquisition (through the ModelStore cache), governor construction,
 * the cap schedule, and the measurement/decision/actuation loop — plus
 * telemetry fan-out to any number of TelemetrySinks.
 *
 *     auto session = runtime::Session::builder(sim::fx8320Config())
 *                        .seed(123)
 *                        .pg(true)
 *                        .onePerCu({"433.milc", "458.sjeng", "CG", "EP"})
 *                        .trainingSeed(42)
 *                        .store(runtime::ModelStore())
 *                        .governor(runtime::edpGovernor())
 *                        .sink(my_sink)
 *                        .build();
 *     auto steps = session.run(40);
 *
 * The session owns one persistent governed interval: a
 * governor::GovernorLoop built once over its source, one reused step,
 * and one interval index shared by telemetry and the cap schedule.
 * Every interval — run(), drive(), replay, the arbitrated fleet — is
 * the same collect half then decide half, and each completed step is
 * fanned out to the sinks with its decision latency and the governor's
 * own predictions.
 */

#ifndef PPEP_RUNTIME_SESSION_HPP
#define PPEP_RUNTIME_SESSION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppep/governor/degraded_mode.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/health.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/sampler.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/replay.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::runtime {

/** What a GovernorFactory gets to work with. */
struct ModelContext
{
    const sim::ChipConfig &cfg;
    const model::TrainedModels &models;
    const model::Ppep &ppep;
    /** The seed the models were trained with (for protocols that need a
     *  Trainer, e.g. the thermal-network fit). */
    std::uint64_t training_seed;
};

/** Builds the session's policy once models are available. */
using GovernorFactory =
    std::function<std::unique_ptr<governor::Governor>(const ModelContext &)>;

/** EDP-optimal one-step DVFS (the daemon default). */
GovernorFactory edpGovernor();

/** Energy-optimal one-step DVFS. */
GovernorFactory energyGovernor();

/** PPEP one-step power capping (Sec. V-B). */
GovernorFactory cappingGovernor();

/** A governed run: chip + jobs + models + policy + telemetry. */
class Session
{
  public:
    /** One pinned job. */
    struct JobSpec
    {
        std::size_t core = 0;
        std::string program;
        bool looping = true;
    };

    class Builder
    {
      public:
        explicit Builder(sim::ChipConfig cfg);

        /** Chip RNG seed (default 1). */
        Builder &seed(std::uint64_t s);

        /** Trainer seed for model acquisition (default 42). */
        Builder &trainingSeed(std::uint64_t s);

        /** Enable/disable power gating on the chip (default off). */
        Builder &pg(bool enabled);

        /** Pin explicit jobs to cores. */
        Builder &jobs(std::vector<JobSpec> specs);

        /**
         * Convenience: program i on the first core of CU i, looping —
         * the paper's multi-programmed placement.
         */
        Builder &onePerCu(const std::vector<std::string> &programs);

        /**
         * Training set for model acquisition (default: all 49
         * single-program combinations); combinations this chip cannot
         * host are left out (runtime::acquireModels).
         */
        Builder &trainingCombos(
            std::vector<const workloads::Combination *> combos);

        /** Acquire models through this cache (default: train fresh). */
        Builder &store(ModelStore s);

        /** Use already-trained models; skips the store and training. */
        Builder &models(model::TrainedModels m);

        /**
         * Share caller-owned models and an assembled predictor without
         * copying either — the fleet path: N sessions over one immutable
         * Ppep. Both objects must outlive the session; the session
         * treats them as strictly read-only, so any number of sessions
         * (on any threads) may share them.
         */
        Builder &sharedModels(const model::TrainedModels &m,
                              const model::Ppep &p);

        /** Policy built from the trained models (default: EDP). */
        Builder &governor(GovernorFactory factory);

        /**
         * Use a caller-owned policy instead; the Session then trains no
         * models unless a store or models were given explicitly.
         */
        Builder &governor(ppep::governor::Governor &external);

        /** Cap schedule (default: unlimited). */
        Builder &schedule(ppep::governor::CapSchedule s);

        /** Warm-up intervals to run (and discard) before run(). */
        Builder &warmup(std::size_t intervals);

        /** Attach a caller-owned telemetry sink (repeatable). */
        Builder &sink(TelemetrySink &s);

        /**
         * Split the chip between named tenants: their jobs are placed
         * on their own cores and every interval's power is attributed
         * per tenant (Eqs. 7-8 idle split) into the telemetry stream.
         * Requires trained models and a PG-capable platform; validated
         * at build().
         */
        Builder &tenants(std::vector<TenantSpec> specs);

        // --- hardened acquisition ------------------------------------

        /**
         * Install a hardware fault plan on the chip and switch the
         * run onto the hardened path: Sampler acquisition,
         * HealthMonitor accounting, and a degraded-mode wrapper
         * around the policy, all on their fixed thresholds. An
         * all-zero plan exercises the hardened path against perfect
         * hardware.
         */
        Builder &faults(const sim::FaultPlan &plan);

        /** Seed for the fault decision stream (default: derived from
         *  the chip seed, so runs stay reproducible). */
        Builder &faultSeed(std::uint64_t s);

        /**
         * Drive the session from a recorded interval stream instead of
         * the simulated chip: collectInterval reads mmap'd frames, the
         * governor decides and actuates live, and telemetry fans out
         * unchanged — zero simulation, zero per-interval allocation
         * once warm. The source must outlive the session, its stream's
         * fingerprint must match this session's chip config (checked
         * at ReplaySource construction), and the recorded caps must
         * match this session's schedule (checked per interval). Warm-up
         * is skipped: the recording already warmed the run it captured.
         */
        Builder &replay(trace::ReplaySource &src);

        /** Assemble the session (trains or loads models as needed). */
        Session build();

      private:
        sim::ChipConfig cfg_;
        std::uint64_t chip_seed_ = 1;
        std::uint64_t training_seed_ = 42;
        bool pg_ = false;
        std::vector<JobSpec> jobs_;
        std::optional<std::vector<const workloads::Combination *>>
            training_combos_;
        std::optional<ModelStore> store_;
        std::optional<model::TrainedModels> models_;
        const model::TrainedModels *shared_models_ = nullptr;
        const model::Ppep *shared_ppep_ = nullptr;
        GovernorFactory factory_;
        ppep::governor::Governor *external_gov_ = nullptr;
        std::optional<ppep::governor::CapSchedule> schedule_;
        std::size_t warmup_ = 0;
        std::vector<TelemetrySink *> sinks_;
        std::vector<TenantSpec> tenants_;
        std::optional<sim::FaultPlan> plan_;
        std::optional<std::uint64_t> fault_seed_;
        trace::ReplaySource *replay_ = nullptr;
    };

    static Builder builder(sim::ChipConfig cfg);

    Session(Session &&) noexcept;
    Session &operator=(Session &&) noexcept;
    ~Session();

    /**
     * Run @p intervals governed intervals, fanning each completed step
     * out to the attached sinks (and calling their finish() at the end),
     * and return a copy of every step. Repeatable: interval indices —
     * telemetry's and the cap schedule's alike — continue across calls.
     */
    std::vector<ppep::governor::GovernorStep> run(std::size_t intervals);

    /**
     * run() without retaining the step trace — the steady-state fleet
     * path. Telemetry fan-out, warm-up, sink finish()/flush() and index
     * continuity are identical to run(); a warm session's interval
     * performs zero heap allocations. Returns the number of intervals
     * run.
     */
    std::size_t drive(std::size_t intervals);

    /** The simulated chip (for inspection or extra job placement). */
    sim::Chip &chip();
    const sim::ChipConfig &config() const;

    /** Whether this session holds trained models. */
    bool hasModels() const;

    /** Trained models; fatal() when the session trained none. */
    const model::TrainedModels &models() const;

    /** Assembled predictor; fatal() when the session trained none. */
    const model::Ppep &ppep() const;

    /** The active policy. */
    ppep::governor::Governor &policy();

    /** True when build() served the models from the store's cache. */
    bool modelsWereCached() const;

    /** True when this session runs the hardened acquisition path:
     *  it was built with faults(). */
    bool hardened() const;

    /** Hardened sampler; nullptr on plain sessions. */
    const Sampler *sampler() const;

    /** Health monitor; nullptr on plain sessions. */
    const HealthMonitor *healthMonitor() const;

    /** Degraded-mode wrapper; nullptr on plain sessions. */
    const ppep::governor::DegradedModeGovernor *degradedGovernor() const;

    /** Tenant attributor; nullptr when the session has no tenants. */
    const TenantAttributor *tenantAttributor() const;

    /**
     * Errors from sinks that failed during the most recent run()
     * (satisfying "a full disk must not pass silently"); empty when
     * every sink recorded faithfully.
     */
    const std::vector<std::string> &sinkErrors() const;

  private:
    struct State;
    explicit Session(std::unique_ptr<State> state);

    // One governed interval is collect() then decide(). run(), drive()
    // and the arbitrated fleet (which sits its barrier between the two
    // halves) all go through this pair.

    /**
     * Stamp the cap and VF context and measure the interval into the
     * session's step — or, for a replay session, decode the next frame
     * and check its recorded cap. The first call runs the warm-up.
     */
    const ppep::governor::GovernorStep &collect();

    /** collect() for a replay session: decode the next frame into the
     *  step and verify its recorded cap against the schedule/limit. */
    void replayFrame();

    /**
     * Decide the next interval under min(schedule, @p cap_limit_w),
     * actuate, fan the step out to the sinks, and advance the interval
     * index. The limit stays in force for the next collect().
     */
    void decide(double cap_limit_w);

    /** Telemetry fan-out of the step decide() just completed. */
    void observe(double decision_latency_s);

    /** finish()+flush() every sink; collect failures. */
    void finishSinks();

    std::unique_ptr<State> state_;
    friend class Builder;
    friend class Fleet;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_SESSION_HPP
