#include "ppep/trace/collector.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::trace {

IntervalRecord
IntervalSource::collectInterval()
{
    IntervalRecord rec;
    collectIntervalInto(rec);
    return rec;
}

Collector::Collector(sim::Chip &chip) : chip_(chip)
{
    reserveTicks(chip.config().ticks_per_interval);
}

void
Collector::reserveTicks(std::size_t n_ticks)
{
    sensor_.reserve(n_ticks);
    diode_.reserve(n_ticks);
}

void
Collector::runTicks(std::size_t n_ticks, IntervalRecord &rec)
    PPEP_NONBLOCKING
{
    const auto &cfg = chip_.config();
    const std::size_t n_cores = cfg.coreCount();

    rec.duration_s = cfg.tick_s * static_cast<double>(n_ticks);
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
    sensor_.resize(n_ticks);
    diode_.resize(n_ticks);
    PPEP_RT_WARMUP_END
    for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
        rec.cu_vf[cu] = chip_.cuVf(cu);
    rec.nb_vf = chip_.nbVf();

    for (std::size_t t = 0; t < n_ticks; ++t) {
        chip_.stepInto(tick_);
        sensor_[t] = tick_.sensor_power_w;
        diode_[t] = tick_.diode_temp_k;
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
