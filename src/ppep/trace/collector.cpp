#include "ppep/trace/collector.hpp"

#include <algorithm>

#include "ppep/util/logging.hpp"

namespace ppep::trace {

IntervalRecord
IntervalSource::collectInterval()
{
    IntervalRecord rec;
    collectIntervalInto(rec);
    return rec;
}

Collector::Collector(sim::Chip &chip)
    : chip_(chip), retired_(chip.config().coreCount())
{
    // A jittered interval runs up to tick_jitter_max more ticks.
    const sim::FaultInjector *inj = chip.faultInjector();
    const std::size_t longest = chip.config().ticks_per_interval +
                                (inj ? inj->plan().tick_jitter_max : 0);
    sensor_.resize(longest);
    diode_.resize(longest);
}

void
Collector::runTicks(std::size_t n_ticks, IntervalRecord &rec)
    PPEP_NONBLOCKING
{
    const auto &cfg = chip_.config();
    const std::size_t n_cores = cfg.coreCount();
    PPEP_ASSERT(n_ticks <= sensor_.size(), n_ticks,
                " ticks exceed the Collector's longest interval");
    n_ticks_ = n_ticks;

    rec.duration_s = cfg.tick_s * static_cast<double>(n_ticks);
    rec.true_power_w = 0.0;
    rec.true_dynamic_w = 0.0;
    rec.true_idle_w = 0.0;
    rec.true_nb_power_w = 0.0;
    rec.true_temp_k = 0.0;
    rec.nb_utilization = 0.0;
    rec.busy_cores = 0;
    // rt-escape: warm-up growth of the caller-owned record; no-ops
    // once sized (test_zero_alloc).
    PPEP_RT_WARMUP_BEGIN
    rec.oracle.assign(n_cores, sim::EventVector{});
    rec.cu_vf.resize(cfg.n_cus);
    PPEP_RT_WARMUP_END
    std::fill(retired_.begin(), retired_.end(), 0.0);
    for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
        rec.cu_vf[cu] = chip_.cuVf(cu);
    rec.nb_vf = chip_.nbVf();

    for (std::size_t t = 0; t < n_ticks; ++t) {
        const sim::TickResult &tick = chip_.tick();
        const sim::PowerBreakdown &power = tick.truth.power;
        sensor_[t] = tick.sensor_power_w;
        diode_[t] = tick.diode_temp_k;
        rec.true_power_w += power.total;
        rec.true_dynamic_w += power.coreDynamicTotal() + power.nb_dynamic;
        rec.true_idle_w += power.base + power.housekeeping +
                           power.nb_static + power.cuIdleTotal();
        rec.true_nb_power_w += power.nb_static + power.nb_dynamic;
        rec.true_temp_k += tick.truth.temperature_k;
        rec.nb_utilization += tick.truth.nb_utilization;
        for (std::size_t c = 0; c < n_cores; ++c) {
            const sim::CoreActivity &act = tick.truth.activity[c];
            for (std::size_t e = 0; e < sim::kNumEvents; ++e)
                rec.oracle[c][e] += act.events[e];
            retired_[c] += act.instructions;
        }
    }

    const double inv = 1.0 / static_cast<double>(n_ticks);
    rec.true_power_w *= inv;
    rec.true_dynamic_w *= inv;
    rec.true_idle_w *= inv;
    rec.true_nb_power_w *= inv;
    rec.true_temp_k *= inv;
    rec.nb_utilization *= inv;
    for (std::size_t c = 0; c < n_cores; ++c)
        if (retired_[c] > 0.0)
            ++rec.busy_cores;
}

void
Collector::collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING
{
    const std::size_t n_ticks = chip_.config().ticks_per_interval;
    runTicks(n_ticks, rec);

    double sensor_sum = 0.0;
    double diode_sum = 0.0;
    for (std::size_t t = 0; t < n_ticks; ++t) {
        sensor_sum += sensor_[t];
        diode_sum += diode_[t];
    }
    const double inv = 1.0 / static_cast<double>(n_ticks);
    rec.sensor_power_w = sensor_sum * inv;
    rec.diode_temp_k = diode_sum * inv;

    const std::size_t n_cores = chip_.config().coreCount();
    // rt-escape: warm-up growth of the record's PMC vector.
    PPEP_RT_WARMUP_BEGIN
    rec.pmc.resize(n_cores);
    PPEP_RT_WARMUP_END
    for (std::size_t c = 0; c < n_cores; ++c)
        rec.pmc[c] = chip_.readPmc(c);
}

std::vector<IntervalRecord>
Collector::collect(std::size_t n)
{
    std::vector<IntervalRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(collectInterval());
    return out;
}

std::vector<IntervalRecord>
Collector::collectUntilFinished(std::size_t max_intervals)
{
    std::vector<IntervalRecord> out;
    while (out.size() < max_intervals && !allJobsFinished())
        out.push_back(collectInterval());
    return out;
}

bool
Collector::allJobsFinished() const
{
    for (std::size_t c = 0; c < chip_.config().coreCount(); ++c) {
        const sim::Job *j = chip_.job(c);
        if (j && !j->finished())
            return false;
    }
    return true;
}

} // namespace ppep::trace
