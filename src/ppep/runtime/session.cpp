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
cappingGovernor()
{
    return [](const ModelContext &ctx) {
        return std::make_unique<governor::PpepCappingGovernor>(ctx.cfg,
                                                               ctx.ppep);
    };
}

/** Everything a built session owns; address-stable behind unique_ptr. */
struct Session::State
{
    sim::ChipConfig cfg;
    /** Models this session trained, loaded or was handed by value. */
    std::optional<model::TrainedModels> owned_models;
    std::optional<model::Ppep> owned_ppep;
    /** The session's models: the owned pair, or the caller-owned
     *  immutable pair a fleet shares; null when it has none. */
    const model::TrainedModels *models = nullptr;
    const model::Ppep *ppep = nullptr;
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
    std::optional<Sampler> sampler;
    std::optional<HealthMonitor> monitor;
    std::unique_ptr<governor::DegradedModeGovernor> degraded_gov;
    std::vector<std::string> sink_errors;
    // Replay ingest: the session reads recorded intervals instead of
    // simulating. The frame's context replaces what the chip would
    // have provided.
    trace::ReplaySource *replay = nullptr;

    // The one persistent governed interval. The source is the replay
    // stream, else the Sampler when hardened, else the Collector; its
    // health() is the interval's health record. The loop is declared
    // last so it dies before everything it references.
    std::optional<trace::Collector> collector;
    trace::IntervalSource *source = nullptr;
    governor::GovernorStep step;
    std::vector<std::size_t> next_vf;
    /** Index of the interval in flight: telemetry's and the cap
     *  schedule's, continuing across run()/drive() calls. */
    std::size_t index = 0;
    std::optional<governor::GovernorLoop> loop;
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
    return *this;
}

Session::Builder &
Session::Builder::faultSeed(std::uint64_t s)
{
    fault_seed_ = s;
    return *this;
}

Session::Builder &
Session::Builder::replay(trace::ReplaySource &src)
{
    replay_ = &src;
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
        state->models = shared_models_;
        state->ppep = shared_ppep_;
    } else if (models_) {
        state->owned_models = std::move(*models_);
    } else if (needs_models) {
        state->owned_models = acquireModels(
            state->cfg, training_seed_,
            training_combos_ ? *training_combos_
                             : workloads::singleProgramCombinations(),
            store_ ? &*store_ : nullptr, &state->was_cached);
    }
    if (state->owned_models) {
        state->owned_ppep.emplace(state->cfg, state->owned_models->chip,
                                  state->owned_models->pg);
        state->models = &*state->owned_models;
        state->ppep = &*state->owned_ppep;
    }

    // Chip + jobs.
    state->pg = pg_;
    state->chip.emplace(state->cfg, chip_seed_);
    state->chip->setPowerGatingEnabled(pg_);
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
        if (!state->models)
            PPEP_FATAL("tenant attribution requires trained models; "
                       "give the session models, a store, or "
                       "sharedModels()");
        state->attributor.emplace(state->cfg, state->models->dynamic,
                                  state->models->pg, std::move(tenants_));
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
        PPEP_ASSERT(state->models && state->ppep,
                    "governor factory requires trained models");
        const ModelContext ctx{state->cfg, *state->models, *state->ppep,
                               training_seed_};
        state->owned_gov = factory(ctx);
        PPEP_ASSERT(state->owned_gov != nullptr,
                    "governor factory returned null");
        state->gov = state->owned_gov.get();
    }

    // Hardened acquisition: faults on the chip, the Sampler in the
    // loop, the HealthMonitor scoring every interval, and the
    // degraded-mode wrapper gating the policy on its verdict.
    if (plan_) {
        // Decorrelate from the chip's own noise streams by default,
        // but keep the derivation a pure function of the chip seed.
        const std::uint64_t fseed =
            fault_seed_ ? *fault_seed_
                        : chip_seed_ ^ 0x9E3779B97F4A7C15ULL;
        state->chip->setFaultPlan(*plan_, fseed);
        state->sampler.emplace(*state->chip);
        state->monitor.emplace();
        state->degraded_gov =
            std::make_unique<governor::DegradedModeGovernor>(
                *state->chip, *state->gov);
        state->gov = state->degraded_gov.get();
    }

    state->replay = replay_;
    if (state->replay) {
        state->source = state->replay;
    } else if (state->sampler) {
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
}

void
Session::decide(double cap_limit_w)
{
    auto &s = *state_;
    s.loop->setCapLimit(cap_limit_w);
    if (s.monitor) {
        // Score the interval just collected before deciding the next:
        // the wrapper's lastPredictedPower() is still the forecast
        // made for it. A replayed stream without a health block reads
        // as clean acquisition.
        const trace::SampleHealth *h = s.source->health();
        s.monitor->observe(h ? *h : trace::SampleHealth{},
                           s.degraded_gov->lastPredictedPower(),
                           s.step.rec.sensor_power_w);
        s.degraded_gov->setDegraded(s.monitor->degraded());
    }
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
                   ? s.replay->frameTimeS()
                   : std::max(0.0, s.chip->timeS() - step.rec.duration_s);
    t.rec = &step.rec;
    t.cu_vf = &step.cu_vf;
    t.cap_w = step.cap_w;
    t.predicted_power_w = s.pending_pred;
    t.exploration = s.gov->lastExploration();
    t.decision_latency_s = decision_latency_s;
    t.health = s.source->health();
    t.degraded = s.degraded_gov ? s.degraded_gov->degradedNow() : false;
    if (s.monitor)
        t.divergence_ewma_w = s.monitor->divergenceEwma();
    if (s.attributor) {
        s.attributor->attributeInto(step.rec, s.pg, s.attribution);
        t.tenants = &s.attribution;
        t.tenant_names = &s.tenant_names;
    }
    for (auto *sink : s.sinks)
        sink->onInterval(t);
    // The decision that just ran governs the *next* interval; hold its
    // forecast until that interval's record arrives.
    s.pending_pred = s.gov->lastPredictedPower();
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
    return state_->models != nullptr;
}

const model::TrainedModels &
Session::models() const
{
    if (!state_->models)
        PPEP_FATAL("this session trained no models");
    return *state_->models;
}

const model::Ppep &
Session::ppep() const
{
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
    return state_->sampler.has_value();
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
