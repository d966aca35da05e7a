#include "ppep/runtime/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace ppep::runtime {

namespace {

/** Plausible sensor-power window, watts. Outside = glitch. */
constexpr double kMinPowerW = 0.0;
constexpr double kMaxPowerW = 1000.0;
static_assert(kMinPowerW < kMaxPowerW, "power window must be non-empty");

/** CPI plausibility window for a core that retired instructions;
 *  outside it the counter set is treated as corrupted (wraparound
 *  makes CPI absurdly small, saturation absurdly large). */
constexpr double kMinCpi = 0.05;
constexpr double kMaxCpi = 500.0;
static_assert(kMinCpi < kMaxCpi, "CPI window must be non-empty");

/** Per-tick event-count ceiling as a multiple of the fastest state's
 *  cycles per interval; counts above it are corrupt. */
constexpr double kMaxEventsPerCycle = 8.0;

/**
 * Interval mean of the samples inside [lo, hi]. Per-sample sanity
 * guards reject NaN/Inf and physically impossible readings (counted in
 * @p rejects) instead of folding them into the mean. An accepted mean
 * becomes the new @p last_good; a fully-rejected stream returns the
 * last good interval's mean. When every sample passes, the arithmetic
 * is the Collector's sum * (1/n) bit for bit.
 */
double
guardedMean(std::span<const double> samples, double lo, double hi,
            std::size_t &rejects, double &last_good) PPEP_NONBLOCKING
{
    double sum = 0.0;
    std::size_t ok = 0;
    for (double v : samples) {
        if (std::isfinite(v) && v >= lo && v <= hi) {
            sum += v;
            ++ok;
        }
    }
    rejects += samples.size() - ok;
    if (ok == samples.size())
        last_good = sum * (1.0 / static_cast<double>(ok));
    else if (ok > 0)
        last_good = sum / static_cast<double>(ok);
    return last_good;
}

} // namespace

Sampler::Sampler(sim::Chip &chip)
    : chip_(chip), collector_(chip),
      last_good_pmc_(chip.config().coreCount(), sim::EventVector{}),
      staleness_(chip.config().coreCount(), 0),
      last_good_power_w_(0.0),
      last_good_temp_k_(chip.config().thermal.ambient_k)
{
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
    const double ceiling = max_cycles * kMaxEventsPerCycle;
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
        if (cpi < kMinCpi || cpi > kMaxCpi)
            return false;
    }
    return true;
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
    health_ = trace::SampleHealth{};
    health_.total_fault_events = carried_total;

    // The daemon's alarm may fire early or late; measure what actually
    // elapsed rather than assuming the nominal interval.
    const std::size_t n_ticks =
        injector ? injector->jitterTicks(nominal) : nominal;
    health_.ticks = n_ticks;
    health_.timing_overrun = n_ticks != nominal;

    collector_.runTicks(n_ticks, rec);

    rec.sensor_power_w =
        guardedMean(collector_.sensorSamples(), kMinPowerW, kMaxPowerW,
                    health_.sensor_rejects, last_good_power_w_);
    rec.diode_temp_k =
        guardedMean(collector_.diodeSamples(), kMinTempK, kMaxTempK,
                    health_.diode_rejects, last_good_temp_k_);

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
             attempt <= kMaxReadRetries && !read_ok;
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
            if (!sane)
                ++health_.pmc_rejected_cores;
        } else {
            ++health_.msr_failed_cores;
        }
        if (read_ok && sane) {
            rec.pmc[c] = counts;
            last_good_pmc_[c] = counts;
            staleness_[c] = 0;
        } else if (staleness_[c] < kStalenessBudget) {
            // Stale-but-sane beats fresh-but-corrupt, within budget.
            ++staleness_[c];
            ++health_.substituted_cores;
            rec.pmc[c] = last_good_pmc_[c];
        } else {
            // Budget exhausted: the defined halted-core sentinel.
            ++health_.zeroed_cores;
            rec.pmc[c] = sim::EventVector{};
        }
    }

    if (injector)
        health_.injected = injector->counters();
    health_.pmc_wrap_events = chip_.pmcWrapEvents();
}

} // namespace ppep::runtime
