#include "ppep/runtime/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::runtime {

Sampler::Sampler(sim::Chip &chip, SamplerPolicy policy)
    : chip_(chip), policy_(policy),
      last_good_pmc_(chip.config().coreCount(), sim::EventVector{}),
      staleness_(chip.config().coreCount(), 0),
      last_good_power_w_(0.0),
      last_good_temp_k_(chip.config().thermal.ambient_k)
{
    PPEP_ASSERT(policy_.staleness_budget >= 1, "staleness budget >= 1");
    PPEP_ASSERT(policy_.min_temp_k < policy_.max_temp_k &&
                    policy_.min_power_w < policy_.max_power_w &&
                    policy_.min_cpi < policy_.max_cpi,
                "sampler plausibility windows must be non-empty");
}

bool
Sampler::countsPlausible(const sim::EventVector &counts,
                         double duration_s) const PPEP_NONBLOCKING
{
    double max_freq_ghz = 0.0;
    for (std::size_t s = 0; s < chip_.stateCount(); ++s)
        max_freq_ghz = std::max(max_freq_ghz,
                                chip_.stateOf(s).freq_ghz);
    // The most cycles a core can physically accumulate, with headroom
    // for multiplexing extrapolation overshoot.
    const double max_cycles = max_freq_ghz * 1e9 * duration_s * 1.25;
    const double ceiling = max_cycles * policy_.max_events_per_cycle;
    for (double v : counts) {
        if (!std::isfinite(v) || v < 0.0 || v > ceiling)
            return false;
    }
    const double inst =
        counts[sim::eventIndex(sim::Event::RetiredInst)];
    const double cycles =
        counts[sim::eventIndex(sim::Event::ClocksNotHalted)];
    if (cycles > max_cycles)
        return false;
    if (inst > 0.0) {
        // Wraparound makes CPI absurdly small, saturation absurdly
        // large; either way the set is corrupt.
        const double cpi = cycles / inst;
        if (cpi < policy_.min_cpi || cpi > policy_.max_cpi)
            return false;
    }
    return true;
}

trace::IntervalRecord
Sampler::collectInterval()
{
    trace::IntervalRecord rec;
    collectIntervalInto(rec);
    return rec;
}

void
Sampler::collectIntervalInto(trace::IntervalRecord &rec) PPEP_NONBLOCKING
{
    const auto &cfg = chip_.config();
    const std::size_t n_cores = cfg.coreCount();
    const std::size_t nominal = cfg.ticks_per_interval;
    sim::FaultInjector *injector = chip_.faultInjector();

    // Carry the cumulative tallies across the per-interval reset.
    const std::size_t carried_total =
        health_.total_fault_events + health_.faultEvents();
    health_ = SampleHealth{};
    health_.total_fault_events = carried_total;

    // The daemon's alarm may fire early or late; measure what actually
    // elapsed rather than assuming the nominal interval.
    const std::size_t n_ticks =
        injector ? injector->jitterTicks(nominal) : nominal;
    health_.ticks = n_ticks;
    health_.timing_overrun = n_ticks != nominal;

    rec.duration_s = cfg.tick_s * static_cast<double>(n_ticks);
    rec.sensor_power_w = 0.0;
    rec.diode_temp_k = 0.0;
    rec.true_power_w = 0.0;
    rec.true_dynamic_w = 0.0;
    rec.true_idle_w = 0.0;
    rec.true_nb_power_w = 0.0;
    rec.true_temp_k = 0.0;
    rec.nb_utilization = 0.0;
    rec.busy_cores = 0;
    // rt-escape: warm-up growth of the caller-owned record and member
    // scratch; no-ops once sized (test_zero_alloc).
    PPEP_RT_WARMUP_BEGIN
    rec.oracle.assign(n_cores, sim::EventVector{});
    rec.cu_vf.resize(cfg.n_cus);
    retired_.assign(n_cores, 0.0);
    PPEP_RT_WARMUP_END
    for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
        rec.cu_vf[cu] = chip_.cuVf(cu);
    rec.nb_vf = chip_.nbVf();

    double sensor_sum = 0.0;
    double diode_sum = 0.0;
    std::size_t sensor_ok = 0;
    std::size_t diode_ok = 0;
    for (std::size_t t = 0; t < n_ticks; ++t) {
        chip_.stepInto(tick_);
        // Per-sample sanity guards: reject NaN/Inf and physically
        // impossible readings instead of folding them into the mean.
        if (std::isfinite(tick_.sensor_power_w) &&
            tick_.sensor_power_w >= policy_.min_power_w &&
            tick_.sensor_power_w <= policy_.max_power_w) {
            sensor_sum += tick_.sensor_power_w;
            ++sensor_ok;
        } else {
            ++health_.sensor_rejects;
        }
        if (std::isfinite(tick_.diode_temp_k) &&
            tick_.diode_temp_k >= policy_.min_temp_k &&
            tick_.diode_temp_k <= policy_.max_temp_k) {
            diode_sum += tick_.diode_temp_k;
            ++diode_ok;
        } else {
            ++health_.diode_rejects;
        }
        rec.true_power_w += tick_.truth.power.total;
        rec.true_dynamic_w += tick_.truth.power.coreDynamicTotal() +
                              tick_.truth.power.nb_dynamic;
        rec.true_idle_w += tick_.truth.power.base +
                           tick_.truth.power.housekeeping +
                           tick_.truth.power.nb_static +
                           tick_.truth.power.cuIdleTotal();
        rec.true_nb_power_w += tick_.truth.power.nb_static +
                               tick_.truth.power.nb_dynamic;
        rec.true_temp_k += tick_.truth.temperature_k;
        rec.nb_utilization += tick_.truth.nb_utilization;
        for (std::size_t c = 0; c < n_cores; ++c) {
            for (std::size_t e = 0; e < sim::kNumEvents; ++e)
                rec.oracle[c][e] += tick_.truth.core_events[c][e];
            retired_[c] += tick_.truth.activity[c].instructions;
        }
    }

    const double inv = 1.0 / static_cast<double>(n_ticks);
    rec.true_power_w *= inv;
    rec.true_dynamic_w *= inv;
    rec.true_idle_w *= inv;
    rec.true_nb_power_w *= inv;
    rec.true_temp_k *= inv;
    rec.nb_utilization *= inv;

    // Interval means over the *accepted* samples; a fully-rejected
    // stream substitutes the last good interval's mean. When every
    // sample was accepted the arithmetic matches the Collector's
    // sum * (1/n) bit for bit.
    if (sensor_ok == n_ticks) {
        rec.sensor_power_w = sensor_sum * inv;
        last_good_power_w_ = rec.sensor_power_w;
    } else if (sensor_ok > 0) {
        rec.sensor_power_w =
            sensor_sum / static_cast<double>(sensor_ok);
        last_good_power_w_ = rec.sensor_power_w;
    } else {
        rec.sensor_power_w = last_good_power_w_;
    }
    if (diode_ok == n_ticks) {
        rec.diode_temp_k = diode_sum * inv;
        last_good_temp_k_ = rec.diode_temp_k;
    } else if (diode_ok > 0) {
        rec.diode_temp_k = diode_sum / static_cast<double>(diode_ok);
        last_good_temp_k_ = rec.diode_temp_k;
    } else {
        rec.diode_temp_k = last_good_temp_k_;
    }

    // Counter read-out: bounded retry, window normalisation, sanity
    // guards, then last-good substitution under a staleness budget.
    // rt-escape: warm-up growth of the record's PMC vector.
    PPEP_RT_WARMUP_BEGIN
    rec.pmc.resize(n_cores);
    PPEP_RT_WARMUP_END
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t window = chip_.pmcTicksSinceReset(c);
        sim::EventVector counts{};
        bool read_ok = false;
        for (std::size_t attempt = 0;
             attempt <= policy_.max_read_retries && !read_ok;
             ++attempt) {
            if (chip_.tryReadPmc(c, counts))
                read_ok = true;
            else
                ++health_.msr_retries;
        }
        bool sane = false;
        if (read_ok) {
            // A read that finally lands after earlier failures covers
            // several intervals' worth of ticks; normalise to this
            // interval under the even-rate assumption, the same
            // discipline as a wraparound-safe delta on a raw counter.
            if (window != n_ticks && window > 0) {
                const double scale = static_cast<double>(n_ticks) /
                                     static_cast<double>(window);
                for (double &v : counts)
                    v *= scale;
            }
            sane = countsPlausible(counts, rec.duration_s);
            if (read_ok && !sane)
                ++health_.pmc_rejected_cores;
        } else {
            ++health_.msr_failed_cores;
        }
        if (read_ok && sane) {
            rec.pmc[c] = counts;
            last_good_pmc_[c] = counts;
            staleness_[c] = 0;
        } else if (staleness_[c] < policy_.staleness_budget) {
            // Stale-but-sane beats fresh-but-corrupt, within budget.
            ++staleness_[c];
            ++health_.substituted_cores;
            rec.pmc[c] = last_good_pmc_[c];
        } else {
            // Budget exhausted: the defined halted-core sentinel.
            ++health_.zeroed_cores;
            rec.pmc[c] = sim::EventVector{};
        }
        if (retired_[c] > 0.0)
            ++rec.busy_cores;
    }

    if (injector)
        health_.injected = injector->counters();
    health_.pmc_wrap_events = chip_.pmcWrapEvents();
}

} // namespace ppep::runtime
