#include "ppep/runtime/session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "ppep/governor/energy_governor.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::runtime {

namespace {

/** The cap limit of an interval no arbiter constrains. */
constexpr double kNoCapLimitW = std::numeric_limits<double>::max();

} // namespace

GovernorFactory
edpGovernor()
{
    return [](const ModelContext &ctx) {
        return std::make_unique<governor::EnergyOptimalGovernor>(
            ctx.cfg, ctx.ppep, governor::EnergyObjective::Edp);
    };
}

GovernorFactory
energyGovernor()
{
    return [](const ModelContext &ctx) {
        return std::make_unique<governor::EnergyOptimalGovernor>(
            ctx.cfg, ctx.ppep, governor::EnergyObjective::Energy);
    };
}

GovernorFactory
cappingGovernor(double guard_band)
{
    return [guard_band](const ModelContext &ctx) {
        return std::make_unique<governor::PpepCappingGovernor>(
            ctx.cfg, ctx.ppep, guard_band);
    };
}

/** Everything a built session owns; address-stable behind unique_ptr. */
struct Session::State
{
    sim::ChipConfig cfg;
    std::optional<model::TrainedModels> models;
    std::optional<model::Ppep> ppep;
    /** Fleet path: caller-owned immutable models shared across sessions. */
    const model::TrainedModels *shared_models = nullptr;
    const model::Ppep *shared_ppep = nullptr;
    std::optional<sim::Chip> chip;
    std::unique_ptr<governor::Governor> owned_gov;
    governor::Governor *gov = nullptr;
    governor::CapSchedule schedule = governor::CapSchedule::unlimited();
    std::vector<TelemetrySink *> sinks;
    std::size_t warmup = 0;
    bool warmed = false;
    bool was_cached = false;
    /** lastPredictedPower() carried over to the interval it forecasts. */
    double pending_pred = std::numeric_limits<double>::quiet_NaN();
    // Tenant attribution; the attributor references cfg + the models,
    // both address-stable inside this State.
    bool pg = false;
    std::optional<TenantAttributor> attributor;
    TenantAttribution attribution;
    std::vector<std::string> tenant_names;
    // Hardened-path members; declared after chip so they die first.
    bool hardened = false;
    std::optional<Sampler> sampler;
    std::optional<HealthMonitor> monitor;
    std::unique_ptr<governor::DegradedModeGovernor> degraded_gov;
    /** Online recalibration; declared after degraded_gov so the worker
     *  (which may hold a governor being reclaimed) dies first. */
    std::unique_ptr<Recalibrator> recal;
    /** Store whose lineage journal adopted generations are appended
     *  to; set only when the session was built with both. */
    std::optional<ModelStore> lineage_store;
    std::vector<std::string> sink_errors;
    // Replay ingest: the session reads recorded intervals instead of
    // simulating. The frame's context replaces what the chip/Sampler
    // would have provided.
    trace::ReplaySource *replay = nullptr;
    double replay_time_s = 0.0;
    SampleHealth replay_health;

    // The one persistent governed interval. The loop reads the source
    // (the Sampler when hardened, otherwise the Collector; replay
    // decodes frames in collect() instead) and is declared last so it
    // dies before everything it references.
    std::optional<trace::Collector> collector;
    trace::IntervalSource *source = nullptr;
    governor::GovernorStep step;
    std::vector<std::size_t> next_vf;
    /** Index of the interval in flight: telemetry's and the cap
     *  schedule's, continuing across run()/drive() calls. */
    std::size_t index = 0;
    std::optional<governor::GovernorLoop> loop;

    /** The health record the current interval was observed with:
     *  decoded from the replay frame, or the live Sampler's. Only
     *  meaningful when hasObservedHealth(). */
    const SampleHealth &observedHealth() const
    {
        return replay ? replay_health : sampler->lastHealth();
    }
    bool hasObservedHealth() const
    {
        return replay ? replay->hasHealth() : sampler.has_value();
    }
};

Session::Builder::Builder(sim::ChipConfig cfg) : cfg_(std::move(cfg)) {}

Session::Builder &
Session::Builder::seed(std::uint64_t s)
{
    chip_seed_ = s;
    return *this;
}

Session::Builder &
Session::Builder::trainingSeed(std::uint64_t s)
{
    training_seed_ = s;
    return *this;
}

Session::Builder &
Session::Builder::pg(bool enabled)
{
    pg_ = enabled;
    return *this;
}

Session::Builder &
Session::Builder::jobs(std::vector<JobSpec> specs)
{
    for (auto &j : specs)
        jobs_.push_back(std::move(j));
    return *this;
}

Session::Builder &
Session::Builder::onePerCu(const std::vector<std::string> &programs)
{
    PPEP_ASSERT(programs.size() <= cfg_.n_cus,
                "more programs than compute units");
    for (std::size_t i = 0; i < programs.size(); ++i)
        jobs_.push_back({i * cfg_.cores_per_cu, programs[i], true});
    return *this;
}

Session::Builder &
Session::Builder::combo(const workloads::Combination &c, bool looping)
{
    combo_ = &c;
    combo_looping_ = looping;
    return *this;
}

Session::Builder &
Session::Builder::trainingCombos(
    std::vector<const workloads::Combination *> combos)
{
    training_combos_ = std::move(combos);
    return *this;
}

Session::Builder &
Session::Builder::store(ModelStore s)
{
    store_ = std::move(s);
    return *this;
}

Session::Builder &
Session::Builder::models(model::TrainedModels m)
{
    models_ = std::move(m);
    return *this;
}

Session::Builder &
Session::Builder::sharedModels(const model::TrainedModels &m,
                               const model::Ppep &p)
{
    shared_models_ = &m;
    shared_ppep_ = &p;
    return *this;
}

Session::Builder &
Session::Builder::governor(GovernorFactory factory)
{
    factory_ = std::move(factory);
    external_gov_ = nullptr;
    return *this;
}

Session::Builder &
Session::Builder::governor(ppep::governor::Governor &external)
{
    external_gov_ = &external;
    factory_ = nullptr;
    return *this;
}

Session::Builder &
Session::Builder::schedule(ppep::governor::CapSchedule s)
{
    schedule_ = std::move(s);
    return *this;
}

Session::Builder &
Session::Builder::warmup(std::size_t intervals)
{
    warmup_ = intervals;
    return *this;
}

Session::Builder &
Session::Builder::sink(TelemetrySink &s)
{
    sinks_.push_back(&s);
    return *this;
}

Session::Builder &
Session::Builder::tenants(std::vector<TenantSpec> specs)
{
    tenants_ = std::move(specs);
    return *this;
}

Session::Builder &
Session::Builder::faults(const sim::FaultPlan &plan)
{
    plan_ = plan;
    hardened_ = true;
    return *this;
}

Session::Builder &
Session::Builder::faultSeed(std::uint64_t s)
{
    fault_seed_ = s;
    return *this;
}

Session::Builder &
Session::Builder::samplerPolicy(const SamplerPolicy &p)
{
    sampler_policy_ = p;
    hardened_ = true;
    return *this;
}

Session::Builder &
Session::Builder::healthPolicy(const HealthPolicy &p)
{
    health_policy_ = p;
    hardened_ = true;
    return *this;
}

Session::Builder &
Session::Builder::safePolicy(const ppep::governor::SafePolicy &p)
{
    safe_policy_ = p;
    hardened_ = true;
    return *this;
}

Session::Builder &
Session::Builder::replay(trace::ReplaySource &src)
{
    replay_ = &src;
    return *this;
}

Session::Builder &
Session::Builder::recalibration(const RecalibrationPolicy &p)
{
    recal_policy_ = p;
    hardened_ = true;
    return *this;
}

Session
Session::Builder::build()
{
    auto state = std::make_unique<State>();
    state->cfg = std::move(cfg_);
    state->schedule = schedule_ ? std::move(*schedule_)
                                : governor::CapSchedule::unlimited();
    state->sinks = std::move(sinks_);
    state->warmup = warmup_;

    // Model acquisition. An external governor needs none unless the
    // caller explicitly supplied models or a store; shared models skip
    // acquisition entirely (the fleet trained them once up front).
    const bool needs_models =
        models_.has_value() || store_.has_value() ||
        (external_gov_ == nullptr && shared_ppep_ == nullptr);
    if (shared_ppep_) {
        state->shared_models = shared_models_;
        state->shared_ppep = shared_ppep_;
    } else if (models_) {
        state->models = std::move(*models_);
    } else if (needs_models) {
        const auto combos =
            training_combos_ ? *training_combos_
                             : workloads::singleProgramCombinations();
        if (store_) {
            state->models = store_->trainOrLoad(
                state->cfg, training_seed_, combos,
                &state->was_cached);
        } else {
            model::Trainer trainer(state->cfg, training_seed_);
            state->models = trainer.trainAll(combos);
        }
    }
    if (state->models)
        state->ppep.emplace(state->cfg, state->models->chip,
                            state->models->pg);

    // Chip + jobs.
    state->pg = pg_;
    state->chip.emplace(state->cfg, chip_seed_);
    state->chip->setPowerGatingEnabled(pg_);
    if (combo_)
        workloads::launch(*state->chip, *combo_, combo_looping_);
    for (const auto &j : jobs_) {
        const auto &profile = workloads::Suite::byName(j.program);
        state->chip->setJob(j.core, j.looping
                                        ? profile.makeLoopingJob()
                                        : profile.makeJob());
    }

    // Tenants: validate ownership against the config, place their
    // jobs, and set up per-interval attribution over the trained
    // models (the attributor rejects platforms without a trained PG
    // idle decomposition).
    if (!tenants_.empty()) {
        const model::TrainedModels *m =
            state->shared_models
                ? state->shared_models
                : (state->models ? &*state->models : nullptr);
        if (!m)
            PPEP_FATAL("tenant attribution requires trained models; "
                       "give the session models, a store, or "
                       "sharedModels()");
        state->attributor.emplace(state->cfg, m->dynamic, m->pg,
                                  std::move(tenants_));
        state->attribution = state->attributor->makeAttribution();
        for (const auto &spec : state->attributor->specs()) {
            state->tenant_names.push_back(spec.name);
            for (const auto &job : spec.jobs) {
                const auto &profile =
                    workloads::Suite::byName(job.program);
                state->chip->setJob(job.core,
                                    job.looping
                                        ? profile.makeLoopingJob()
                                        : profile.makeJob());
            }
        }
    }

    // Policy.
    if (external_gov_) {
        state->gov = external_gov_;
    } else {
        const GovernorFactory factory =
            factory_ ? factory_ : edpGovernor();
        PPEP_ASSERT((state->models && state->ppep) ||
                        (state->shared_models && state->shared_ppep),
                    "governor factory requires trained models");
        const ModelContext ctx{
            state->cfg,
            state->shared_models ? *state->shared_models
                                 : *state->models,
            state->shared_ppep ? *state->shared_ppep : *state->ppep,
            training_seed_};
        state->owned_gov = factory(ctx);
        PPEP_ASSERT(state->owned_gov != nullptr,
                    "governor factory returned null");
        state->gov = state->owned_gov.get();
    }

    // Hardened acquisition: faults on the chip, the Sampler in the
    // loop, the HealthMonitor scoring every interval, and the
    // degraded-mode wrapper gating the policy on its verdict.
    state->hardened = hardened_;
    if (plan_) {
        // Decorrelate from the chip's own noise streams by default,
        // but keep the derivation a pure function of the chip seed.
        const std::uint64_t fseed =
            fault_seed_ ? *fault_seed_
                        : chip_seed_ ^ 0x9E3779B97F4A7C15ULL;
        state->chip->setFaultPlan(*plan_, fseed);
    }
    if (hardened_) {
        state->sampler.emplace(*state->chip, sampler_policy_);
        state->monitor.emplace(health_policy_);
        State *st = state.get();
        // The probe runs at the top of every decide(), when the
        // wrapper's lastPredictedPower() is still the forecast made
        // for the interval in rec — exactly what divergence needs.
        state->degraded_gov =
            std::make_unique<governor::DegradedModeGovernor>(
                *state->chip, *state->gov,
                [st](const trace::IntervalRecord &rec) {
                    st->monitor->observe(
                        st->observedHealth(),
                        st->degraded_gov->lastPredictedPower(),
                        rec.sensor_power_w);
                    return st->monitor->degraded();
                },
                safe_policy_);
        state->gov = state->degraded_gov.get();
    }

    // Online recalibration: a background refitter that can rebuild the
    // policy over hot-swapped models — so it cannot manage a policy it
    // does not know how to construct.
    if (recal_policy_) {
        PPEP_ASSERT(external_gov_ == nullptr,
                    "recalibration rebuilds the governor from its "
                    "factory; it cannot manage an external policy");
        const model::TrainedModels *gen0 =
            state->shared_models ? state->shared_models
                                 : (state->models ? &*state->models
                                                  : nullptr);
        PPEP_ASSERT(gen0 != nullptr,
                    "recalibration requires trained models");
        const GovernorFactory factory =
            factory_ ? factory_ : edpGovernor();
        const std::uint64_t tseed = training_seed_;
        GovernorRebuilder rebuild =
            [factory, tseed](const sim::ChipConfig &cfg,
                             const model::TrainedModels &m,
                             const model::Ppep &p) {
                return factory(ModelContext{cfg, m, p, tseed});
            };
        state->recal = std::make_unique<Recalibrator>(
            state->cfg, *gen0, std::move(rebuild), training_seed_,
            *recal_policy_);
        if (store_)
            state->lineage_store = *store_;
    }

    state->replay = replay_;
    if (state->sampler) {
        state->source = &*state->sampler;
    } else {
        state->collector.emplace(*state->chip);
        state->source = &*state->collector;
    }
    state->loop.emplace(*state->chip, *state->gov, *state->source);

    return Session(std::move(state));
}

Session::Builder
Session::builder(sim::ChipConfig cfg)
{
    return Builder(std::move(cfg));
}

Session::Session(std::unique_ptr<State> state) : state_(std::move(state))
{
}

Session::Session(Session &&) noexcept = default;
Session &Session::operator=(Session &&) noexcept = default;
Session::~Session() = default;

const governor::GovernorStep &
Session::collect()
{
    auto &s = *state_;
    if (s.replay) {
        replayFrame();
        return s.step;
    }
    if (!s.warmed) {
        // Warm through the session's own source, so a hardened
        // Sampler's last-good state is primed before governed
        // intervals begin.
        for (std::size_t i = 0; i < s.warmup; ++i)
            s.source->collectIntervalInto(s.step.rec);
        s.warmed = true;
    }
    s.loop->cycleBegin(s.index, s.schedule, s.step);
    s.source->collectIntervalInto(s.step.rec);
    return s.step;
}

void
Session::replayFrame()
{
    // The recording already warmed the run it captured; replaying a
    // warm-up would consume governed frames.
    auto &s = *state_;
    if (s.replay->done())
        PPEP_FATAL("replay stream exhausted after ",
                   s.replay->framesConsumed(), " frames at interval ",
                   s.index);
    s.replay->collectIntervalInto(s.step.rec);
    // The frame's telemetry context replaces what cycleBegin would
    // read off the chip. The recorded VF context equals what the
    // live run stamped from its chip at the same point, and the
    // recorded cap must agree with this session's schedule (and any
    // arbiter limit) or the governor would be reacting to caps the
    // record never ran.
    const double want_cap_w =
        std::min(s.schedule.capAt(s.index), s.loop->capLimit());
    s.step.cap_w = s.replay->frameCapW();
    if (s.step.cap_w != want_cap_w)
        PPEP_FATAL("replayed cap ", s.step.cap_w, " W at interval ",
                   s.index, " does not match the session schedule's ",
                   want_cap_w, " W");
    s.step.cu_vf = s.step.rec.cu_vf;
    s.replay_time_s = s.replay->frameTimeS();
    if (s.replay->hasHealth()) {
        const trace::ReplayHealth &rh = s.replay->frameHealth();
        SampleHealth &h = s.replay_health;
        h.msr_retries = static_cast<std::size_t>(rh.msr_retries);
        h.msr_failed_cores =
            static_cast<std::size_t>(rh.msr_failed_cores);
        h.pmc_rejected_cores =
            static_cast<std::size_t>(rh.pmc_rejected_cores);
        h.substituted_cores =
            static_cast<std::size_t>(rh.substituted_cores);
        h.zeroed_cores = static_cast<std::size_t>(rh.zeroed_cores);
        h.sensor_rejects =
            static_cast<std::size_t>(rh.sensor_rejects);
        h.diode_rejects =
            static_cast<std::size_t>(rh.diode_rejects);
        h.ticks = static_cast<std::size_t>(rh.ticks);
        h.timing_overrun = rh.timing_overrun;
        h.pmc_wrap_events =
            static_cast<std::size_t>(rh.pmc_wrap_events);
        h.total_fault_events =
            static_cast<std::size_t>(rh.total_fault_events);
    }
}

void
Session::decide(double cap_limit_w)
{
    auto &s = *state_;
    s.loop->setCapLimit(cap_limit_w);
    double latency_s = 0.0;
    s.loop->cycleDecide(s.index, s.schedule, s.step, s.next_vf,
                        latency_s);
    // The telemetry hand-off lives outside the loop's annotated
    // region: sinks such as CsvSink perform blocking stream I/O.
    observe(latency_s);
    ++s.index;
}

void
Session::observe(double decision_latency_s)
{
    auto &s = *state_;
    const governor::GovernorStep &step = s.step;
    IntervalTelemetry t;
    t.index = s.index;
    // Accumulated tick rounding can leave the first interval a hair
    // below zero; clamp rather than report negative time. Replay
    // serves the recorded timestamp: the chip never steps.
    t.time_s = s.replay
                   ? s.replay_time_s
                   : std::max(0.0, s.chip->timeS() - step.rec.duration_s);
    t.rec = &step.rec;
    t.cu_vf = &step.cu_vf;
    t.cap_w = step.cap_w;
    t.predicted_power_w = s.pending_pred;
    t.exploration = s.gov->lastExploration();
    t.decision_latency_s = decision_latency_s;
    t.health = s.hasObservedHealth() ? &s.observedHealth() : nullptr;
    t.degraded = s.degraded_gov ? s.degraded_gov->degradedNow() : false;
    if (s.monitor)
        t.divergence_ewma_w = s.monitor->divergenceEwma();
    // The decision that just ran governs the *next* interval; hold its
    // forecast until that interval's record arrives. Captured before
    // any model swap below, so the forecast stays paired with the
    // governor that actually made the decision.
    const double next_pred = s.gov->lastPredictedPower();
    if (s.recal) {
        // Feed the ring, resolve any due refit (re-pointing the
        // degraded wrapper at the new generation and restarting the
        // divergence EWMA), then consider a new trigger — adopt-before-
        // trigger so a freshly reset EWMA cannot immediately
        // re-dispatch.
        s.recal->observeInterval(
            step.rec, s.observedHealth().faultEvents() == 0, t.index);
        if (const auto *ver = s.recal->adoptIfDue(t.index)) {
            s.degraded_gov->setInner(*ver->gov);
            s.monitor->noteModelSwap();
            t.divergence_ewma_w = s.monitor->divergenceEwma();
            if (s.lineage_store)
                s.lineage_store->appendLineage(
                    s.cfg.name, platformFingerprint(s.cfg),
                    ver->generation, ver->parent_digest, ver->digest,
                    "drift-refit", ver->trigger_interval, ver->cv_mae_w,
                    ver->incumbent_ring_mae_w);
        }
        s.recal->maybeTrigger(step.rec, s.monitor->divergenceEwma(),
                              t.index);
        t.recal_active = true;
        t.model_generation = s.recal->generation();
        t.recal_triggers = s.recal->triggers();
        t.recal_accepted = s.recal->accepted();
        t.recal_rejected = s.recal->rejected();
    }
    if (s.attributor) {
        s.attributor->attributeInto(step.rec, s.pg, s.attribution);
        t.tenants = &s.attribution;
        t.tenant_names = &s.tenant_names;
    }
    for (auto *sink : s.sinks)
        sink->onInterval(t);
    s.pending_pred = next_pred;
}

void
Session::finishSinks()
{
    auto &s = *state_;
    s.sink_errors.clear();
    for (auto *sink : s.sinks) {
        sink->finish();
        // The explicit durability point of the sink contract: after
        // run()/drive() returns, everything observed is on its medium.
        sink->flush();
        if (sink->failed()) {
            PPEP_WARN("telemetry sink failed: ", sink->error());
            s.sink_errors.push_back(sink->error());
        }
    }
}

std::vector<governor::GovernorStep>
Session::run(std::size_t intervals)
{
    std::vector<governor::GovernorStep> steps;
    steps.reserve(intervals);
    for (std::size_t i = 0; i < intervals; ++i) {
        steps.push_back(collect());
        decide(kNoCapLimitW);
    }
    finishSinks();
    return steps;
}

std::size_t
Session::drive(std::size_t intervals)
{
    for (std::size_t i = 0; i < intervals; ++i) {
        collect();
        decide(kNoCapLimitW);
    }
    finishSinks();
    return intervals;
}

sim::Chip &
Session::chip()
{
    return *state_->chip;
}

const sim::ChipConfig &
Session::config() const
{
    return state_->cfg;
}

bool
Session::hasModels() const
{
    return state_->models.has_value() ||
           state_->shared_models != nullptr;
}

const model::TrainedModels &
Session::models() const
{
    if (state_->shared_models)
        return *state_->shared_models;
    if (!state_->models)
        PPEP_FATAL("this session trained no models");
    return *state_->models;
}

const model::Ppep &
Session::ppep() const
{
    if (state_->shared_ppep)
        return *state_->shared_ppep;
    if (!state_->ppep)
        PPEP_FATAL("this session trained no models");
    return *state_->ppep;
}

governor::Governor &
Session::policy()
{
    return *state_->gov;
}

bool
Session::modelsWereCached() const
{
    return state_->was_cached;
}

bool
Session::hardened() const
{
    return state_->hardened;
}

const Sampler *
Session::sampler() const
{
    return state_->sampler ? &*state_->sampler : nullptr;
}

const HealthMonitor *
Session::healthMonitor() const
{
    return state_->monitor ? &*state_->monitor : nullptr;
}

const ppep::governor::DegradedModeGovernor *
Session::degradedGovernor() const
{
    return state_->degraded_gov.get();
}

const Recalibrator *
Session::recalibrator() const
{
    return state_->recal.get();
}

const TenantAttributor *
Session::tenantAttributor() const
{
    return state_->attributor ? &*state_->attributor : nullptr;
}

const std::vector<std::string> &
Session::sinkErrors() const
{
    return state_->sink_errors;
}

} // namespace ppep::runtime
