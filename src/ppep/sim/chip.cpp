#include "ppep/sim/chip.hpp"

#include <algorithm>
#include <limits>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

Chip::Chip(ChipConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      nb_(cfg_),
      thermal_(cfg_.thermal),
      hw_power_(cfg_),
      sensor_(cfg_.sensor, util::Rng(seed).fork(0xBEEF)),
      jobs_(cfg_.coreCount()),
      cu_vf_(cfg_.n_cus, cfg_.vf_table.top()),
      pg_enabled_(false)
{
    cfg_.validate();
    util::Rng root(seed);
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c) {
        pmc_.emplace_back(cfg_.pmc_counters, c);
        core_rngs_.push_back(root.fork(100 + c));
    }
}

void
Chip::setJob(std::size_t core, std::unique_ptr<Job> job)
{
    PPEP_ASSERT(core < jobs_.size(), "core ", core, " out of range");
    jobs_[core] = std::move(job);
}

void
Chip::clearJob(std::size_t core)
{
    PPEP_ASSERT(core < jobs_.size(), "core ", core, " out of range");
    jobs_[core].reset();
}

const Job *
Chip::job(std::size_t core) const
{
    PPEP_ASSERT(core < jobs_.size(), "core ", core, " out of range");
    return jobs_[core].get();
}

void
Chip::setCuVf(std::size_t cu, std::size_t vf_index) PPEP_NONBLOCKING
{
    PPEP_ASSERT(cu < cu_vf_.size(), "CU ", cu, " out of range");
    PPEP_ASSERT(vf_index < stateCount(), "VF index out of range");
    if (injector_) {
        switch (injector_->onVfWrite()) {
        case FaultInjector::VfWrite::Reject:
            return; // silently dropped, like a contended P-state MSR
        case FaultInjector::VfWrite::Delay:
            // rt-escape: delayed-write queue growth; capacity is
            // reserved in setFaultPlan() so warm pushes reuse it.
            PPEP_RT_WARMUP_BEGIN
            pending_vf_.push_back(
                {cu, vf_index, injector_->plan().vf_delay_ticks});
            PPEP_RT_WARMUP_END
            return;
        case FaultInjector::VfWrite::Apply:
            break;
        }
    }
    cu_vf_[cu] = vf_index;
}

std::size_t
Chip::stateCount() const PPEP_NONBLOCKING
{
    return cfg_.vf_table.size() + cfg_.boost_states.size();
}

const VfState &
Chip::stateOf(std::size_t index) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(index < stateCount(), "state index out of range");
    if (index < cfg_.vf_table.size())
        return cfg_.vf_table.state(index);
    return cfg_.boost_states[index - cfg_.vf_table.size()];
}

std::size_t
Chip::grantedVf(std::size_t cu) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(cu < cu_vf_.size(), "CU out of range");
    const std::size_t requested = cu_vf_[cu];
    if (requested < cfg_.vf_table.size())
        return requested;
    std::size_t busy_cus = 0;
    for (std::size_t i = 0; i < cfg_.n_cus; ++i)
        busy_cus += !cuIdle(i);
    return grant(requested, boostAllowed(busy_cus));
}

bool
Chip::boostAllowed(std::size_t busy_cus) const PPEP_NONBLOCKING
{
    return busy_cus <= cfg_.boost_max_busy_cus &&
           thermal_.temperature() < cfg_.boost_temp_limit_k;
}

std::size_t
Chip::grant(std::size_t requested, bool boost_allowed) const PPEP_NONBLOCKING
{
    return requested < cfg_.vf_table.size() || boost_allowed
               ? requested
               : cfg_.vf_table.top();
}

void
Chip::setAllVf(std::size_t vf_index) PPEP_NONBLOCKING
{
    for (std::size_t cu = 0; cu < cu_vf_.size(); ++cu)
        setCuVf(cu, vf_index);
}

std::size_t
Chip::cuVf(std::size_t cu) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(cu < cu_vf_.size(), "CU ", cu, " out of range");
    return cu_vf_[cu];
}

void
Chip::setPowerGatingEnabled(bool enabled)
{
    PPEP_ASSERT(!enabled || cfg_.pg_supported,
                "this processor does not support power gating");
    pg_enabled_ = enabled;
}

EventVector
Chip::readPmc(std::size_t core) PPEP_NONBLOCKING
{
    PPEP_ASSERT(core < pmc_.size(), "core ", core, " out of range");
    return pmc_[core].readAndReset();
}

bool
Chip::tryReadPmc(std::size_t core, EventVector &out) PPEP_NONBLOCKING
{
    PPEP_ASSERT(core < pmc_.size(), "core ", core, " out of range");
    if (injector_ && injector_->msrReadFails())
        return false;
    out = pmc_[core].readAndReset();
    return true;
}

std::size_t
Chip::pmcTicksSinceReset(std::size_t core) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(core < pmc_.size(), "core ", core, " out of range");
    return pmc_[core].ticksSinceReset();
}

void
Chip::setFaultPlan(const FaultPlan &plan, std::uint64_t seed)
{
    injector_ = std::make_unique<FaultInjector>(plan, seed);
    for (auto &pmc : pmc_)
        pmc.setWrapBits(plan.pmc_wrap_bits);
    // Bound the delayed-write queue up front so the warm hot path never
    // grows it: at most one in-flight write per CU per delay window.
    pending_vf_.reserve(cfg_.n_cus *
                        std::max<std::size_t>(1, plan.vf_delay_ticks));
}

std::size_t
Chip::pmcWrapEvents() const PPEP_NONBLOCKING
{
    std::size_t total = 0;
    for (const auto &pmc : pmc_)
        total += pmc.wrapEvents();
    return total;
}

bool
Chip::cuIdle(std::size_t cu) const PPEP_NONBLOCKING
{
    for (std::size_t k = 0; k < cfg_.cores_per_cu; ++k) {
        const std::size_t core = cu * cfg_.cores_per_cu + k;
        if (jobs_[core] && !jobs_[core]->finished())
            return false;
    }
    return true;
}

double
Chip::effectiveCuVoltage(std::size_t cu) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(cu < cu_vf_.size(), "CU out of range");
    if (cfg_.per_cu_voltage)
        return stateOf(grantedVf(cu)).voltage;
    // Shared rail: the highest granted voltage among ungated CUs wins.
    double v = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < cu_vf_.size(); ++i) {
        if (pg_enabled_ && cuIdle(i))
            continue;
        v = std::max(v, stateOf(grantedVf(i)).voltage);
        any = true;
    }
    if (!any)
        v = cfg_.vf_table.state(0).voltage;
    return v;
}

double
Chip::activityFactor(std::size_t core) const PPEP_NONBLOCKING
{
    const Job *j = jobs_[core].get();
    if (!j || j->finished())
        return 1.0;
    // Deterministic per (benchmark, phase index): the same code region
    // has the same unmodeled behaviour at every VF state and in every
    // run — exactly like real software. The job caches its name hash at
    // construction so this stays off the per-tick critical path.
    const std::uint64_t h =
        j->nameHash() ^
        (j->currentPhaseIndex() * 0x9e3779b97f4a7c15ULL);
    util::Rng r(h);
    return std::max(0.5,
                    1.0 + r.gaussian(0.0, cfg_.power.phase_activity_sd));
}

TickResult
Chip::step()
{
    TickResult res;
    stepInto(res);
    return res;
}

void
Chip::stepInto(TickResult &res) PPEP_NONBLOCKING
{
    const double dt = cfg_.tick_s;
    const std::size_t n_cores = cfg_.coreCount();

    // 0. Delayed P-state writes land once their latency expires.
    if (!pending_vf_.empty()) {
        std::size_t kept = 0;
        for (auto &w : pending_vf_) {
            if (w.ticks_left > 0) {
                --w.ticks_left;
                pending_vf_[kept++] = w;
            } else {
                cu_vf_[w.cu] = w.vf_index;
            }
        }
        // rt-escape: shrinking resize — never reallocates, but the
        // analysis cannot prove kept <= size().
        PPEP_RT_WARMUP_BEGIN
        pending_vf_.resize(kept);
        PPEP_RT_WARMUP_END
    }

    // 1. Gate states for this tick.
    std::vector<bool> &cu_gated = scratch_.cu_gated;
    // rt-escape: warm-up growth of per-tick scratch; assign() at steady
    // sizes reuses capacity (test_zero_alloc).
    PPEP_RT_WARMUP_BEGIN
    cu_gated.assign(cfg_.n_cus, false);
    PPEP_RT_WARMUP_END
    bool all_gated = true;
    std::size_t busy_cus = 0;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu) {
        const bool idle = cuIdle(cu);
        busy_cus += !idle;
        cu_gated[cu] = pg_enabled_ && idle;
        all_gated = all_gated && cu_gated[cu];
    }
    const bool nb_gated = pg_enabled_ && all_gated;

    // 2. Effective per-CU voltage/frequency, from each CU's granted
    //    state; on a shared rail the highest voltage among the ungated
    //    CUs wins (as in effectiveCuVoltage()).
    std::vector<double> &cu_volt = scratch_.cu_volt;
    std::vector<double> &cu_freq = scratch_.cu_freq;
    // rt-escape: warm-up growth of per-tick scratch.
    PPEP_RT_WARMUP_BEGIN
    cu_volt.assign(cfg_.n_cus, 0.0);
    cu_freq.assign(cfg_.n_cus, 0.0);
    PPEP_RT_WARMUP_END
    const bool boost_allowed = boostAllowed(busy_cus);
    double rail_v = 0.0;
    bool rail_used = false;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu) {
        const VfState &granted = stateOf(grant(cu_vf_[cu], boost_allowed));
        cu_volt[cu] = granted.voltage;
        cu_freq[cu] = granted.freq_ghz;
        if (!cu_gated[cu]) {
            rail_v = std::max(rail_v, granted.voltage);
            rail_used = true;
        }
    }
    if (!cfg_.per_cu_voltage)
        std::fill(cu_volt.begin(), cu_volt.end(),
                  rail_used ? rail_v : cfg_.vf_table.state(0).voltage);

    // 3. Effective rates for busy cores, then the NB contention fixed
    //    point across all of them.
    std::vector<PerInstRates> &rates = scratch_.rates;
    // rt-escape: warm-up growth of per-tick scratch.
    PPEP_RT_WARMUP_BEGIN
    rates.assign(n_cores, PerInstRates{});
    PPEP_RT_WARMUP_END
    std::vector<CoreDemand> &demands = scratch_.demands;
    std::vector<std::size_t> &demand_core = scratch_.demand_core;
    demands.clear();
    demand_core.clear();
    for (std::size_t c = 0; c < n_cores; ++c) {
        Job *j = jobs_[c].get();
        if (!j || j->finished())
            continue;
        const std::size_t cu = c / cfg_.cores_per_cu;
        rates[c] = CoreModel::effectiveRates(cfg_, j->currentPhase(),
                                             cu_freq[cu], core_rngs_[c]);
        // rt-escape: push into cleared-but-warm scratch; capacity is
        // reused after the first tick at a given core count.
        PPEP_RT_WARMUP_BEGIN
        demands.push_back({rates[c], cu_freq[cu]});
        demand_core.push_back(c);
        PPEP_RT_WARMUP_END
    }
    const NbResolution &nb_res = scratch_.nb_res;
    nb_.resolveInto(demands, scratch_.nb_res);

    // 4. Execute each busy core and advance its job.
    res.sensor_power_w = 0.0;
    res.diode_temp_k = 0.0;
    std::vector<double> &act_factor = scratch_.act_factor;
    // rt-escape: warm-up growth of the caller-owned result and scratch.
    PPEP_RT_WARMUP_BEGIN
    res.truth.activity.assign(n_cores, CoreActivity{});
    res.truth.core_events.assign(n_cores, EventVector{});
    act_factor.assign(n_cores, 1.0);
    PPEP_RT_WARMUP_END
    for (std::size_t d = 0; d < demands.size(); ++d) {
        const std::size_t c = demand_core[d];
        Job *j = jobs_[c].get();
        act_factor[c] = activityFactor(c);
        const std::size_t cu = c / cfg_.cores_per_cu;
        CoreActivity act = CoreModel::execute(
            cfg_, rates[c], cu_freq[cu], nb_res.mem_lat_ns[d], dt,
            std::numeric_limits<double>::infinity());
        const double consumed = j->advance(act.instructions);
        if (consumed < act.instructions) {
            // Job finished mid-tick; scale the tick's activity down.
            const double frac =
                act.instructions > 0.0 ? consumed / act.instructions : 0.0;
            act.instructions = consumed;
            act.cycles *= frac;
            for (auto &e : act.events)
                e *= frac;
            act.l3_accesses *= frac;
            act.dram_accesses *= frac;
        }
        res.truth.activity[c] = act;
        res.truth.core_events[c] = act.events;
    }

    // 5. Ground-truth power.
    std::vector<CorePowerInput> &pins = scratch_.pins;
    // rt-escape: warm-up growth of per-tick scratch.
    PPEP_RT_WARMUP_BEGIN
    pins.assign(n_cores, CorePowerInput{});
    PPEP_RT_WARMUP_END
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        pins[c].activity = &res.truth.activity[c];
        pins[c].voltage = cu_volt[cu];
        pins[c].freq_ghz = cu_freq[cu];
        pins[c].activity_factor = act_factor[c];
    }
    hw_power_.computeInto(pins, cu_gated, nb_gated, cu_volt, cu_freq,
                          nb_.vf(), thermal_.temperature(), dt,
                          res.truth.power);
    if (injector_ && injector_->drifting()) {
        // Silicon aging: the whole true power decomposition wanders by
        // one multiplicative gain, so the trained models slowly go
        // stale while the decomposition stays self-consistent.
        injector_->advanceDrift();
        const double g = injector_->powerGain();
        PowerBreakdown &pw = res.truth.power;
        pw.total *= g;
        pw.base *= g;
        pw.housekeeping *= g;
        pw.nb_static *= g;
        pw.nb_dynamic *= g;
        for (double &w : pw.cu_idle)
            w *= g;
        for (double &w : pw.core_dynamic)
            w *= g;
    }
    // rt-escape: warm-up growth of the caller-owned result.
    PPEP_RT_WARMUP_BEGIN
    res.truth.cu_gated.assign(cu_gated.begin(), cu_gated.end());
    PPEP_RT_WARMUP_END
    res.truth.nb_gated = nb_gated;
    res.truth.nb_utilization = nb_res.utilization;

    // 6. Thermal advance, then the observable readings.
    thermal_.step(res.truth.power.total, dt);
    res.truth.temperature_k = thermal_.temperature();
    res.sensor_power_w = sensor_.sample(res.truth.power.total);
    res.diode_temp_k = thermal_.diodeReading();
    if (injector_) {
        if (injector_->drifting())
            res.sensor_power_w *= injector_->sensorGain();
        res.sensor_power_w = injector_->corruptSensor(res.sensor_power_w);
        res.diode_temp_k = injector_->corruptDiode(res.diode_temp_k);
    }

    // 7. Counters tick; the daemon harvests the active group and
    //    rotates. Injected faults: a slot may saturate to full scale,
    //    and the harvest may miss the tick entirely (the counts then
    //    bleed into the next harvest unrotated).
    for (std::size_t c = 0; c < n_cores; ++c) {
        PmcMultiplexer &pmc = pmc_[c];
        pmc.observe(res.truth.core_events[c]);
        if (injector_) {
            if (const auto slot = injector_->saturatedSlot(pmc.slotCount()))
                pmc.saturate(*slot);
            if (injector_->muxTickDropped())
                continue;
        }
        pmc.harvest();
    }

    time_s_ += dt;
}

void
Chip::run(std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step();
}

} // namespace ppep::sim
