/**
 * @file
 * Hardened interval acquisition for governed runs.
 *
 * trace::Collector assumes perfect hardware: every sensor sample is
 * finite and plausible, every PMC read succeeds, every interval is
 * exactly ticks_per_interval long. The Sampler assumes none of that. It
 * owns the acquisition path a production daemon needs:
 *
 *  - bounded retry on failed PMC read-outs, with tick-count
 *    normalisation when a retry finally reads a multi-interval window
 *    (the wraparound-safe-delta discipline applied at interval scale);
 *  - per-sample sanity guards: NaN/Inf rejection and physical range
 *    clamps on the sensor and diode streams, CPI-plausibility rejection
 *    of counter sets corrupted by wraparound or saturation;
 *  - last-good substitution with a staleness budget: a core whose
 *    counters cannot be trusted reports its last sane interval, up to
 *    policy.staleness_budget intervals, after which it degrades to the
 *    defined all-zero (halted-core) sentinel rather than stale lies;
 *  - interval-timing tolerance: jittered/overrun intervals report their
 *    true duration so downstream rate math stays correct.
 *
 * Every intervention is counted in a SampleHealth record, which the
 * HealthMonitor and telemetry sinks consume. On clean hardware the
 * Sampler's records are identical to the Collector's.
 */

#ifndef PPEP_RUNTIME_SAMPLER_HPP
#define PPEP_RUNTIME_SAMPLER_HPP

#include <cstddef>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/trace/interval.hpp"

namespace ppep::runtime {

/** Acquisition limits and plausibility windows. */
struct SamplerPolicy
{
    /** Retries after a failed PMC read-out (attempts = retries + 1). */
    std::size_t max_read_retries = 3;

    /** Intervals a core may substitute last-good counts before it
     *  degrades to the all-zero halted sentinel. */
    std::size_t staleness_budget = 5;

    /** Plausible thermal-diode window, kelvin. Outside = glitch. */
    double min_temp_k = 230.0;
    double max_temp_k = 420.0;

    /** Plausible sensor-power window, watts. Outside = glitch. */
    double min_power_w = 0.0;
    double max_power_w = 1000.0;

    /** CPI plausibility window for a core that retired instructions;
     *  outside it the counter set is treated as corrupted (wraparound
     *  makes CPI absurdly small, saturation absurdly large). */
    double min_cpi = 0.05;
    double max_cpi = 500.0;

    /** Per-tick event-count ceiling as a multiple of the fastest
     *  state's cycles per interval; counts above it are corrupt. */
    double max_events_per_cycle = 8.0;
};

/** Everything the Sampler did to one interval (plus cumulative state). */
struct SampleHealth
{
    // --- this interval --------------------------------------------------
    /** Failed PMC read-out attempts that were retried. */
    std::size_t msr_retries = 0;
    /** Cores whose read-out failed every attempt this interval. */
    std::size_t msr_failed_cores = 0;
    /** Cores whose counter set failed the sanity guards. */
    std::size_t pmc_rejected_cores = 0;
    /** Cores reporting last-good substitute counts. */
    std::size_t substituted_cores = 0;
    /** Cores degraded to the all-zero sentinel (budget exhausted). */
    std::size_t zeroed_cores = 0;
    /** Sensor samples rejected (NaN/Inf or outside the window). */
    std::size_t sensor_rejects = 0;
    /** Diode samples rejected. */
    std::size_t diode_rejects = 0;
    /** Ticks this interval actually ran. */
    std::size_t ticks = 0;
    /** True when ticks != the configured nominal interval length. */
    bool timing_overrun = false;

    /** Fault-relevant events this interval (the health-policy input). */
    std::size_t faultEvents() const
    {
        return msr_retries + msr_failed_cores + pmc_rejected_cores +
               substituted_cores + zeroed_cores + sensor_rejects +
               diode_rejects + (timing_overrun ? 1 : 0);
    }

    // --- cumulative since construction ----------------------------------
    /** Snapshot of the chip injector's counters (zero when absent). */
    sim::FaultCounters injected{};
    /** Total PMC wraparounds the hardware performed. */
    std::size_t pmc_wrap_events = 0;
    /** Running sum of faultEvents() over all intervals. */
    std::size_t total_fault_events = 0;
};

/** Hardened tick-accurate interval acquisition bound to one chip. */
class Sampler : public trace::IntervalSource
{
  public:
    explicit Sampler(sim::Chip &chip, SamplerPolicy policy = {});

    /** Run one interval with the full retry/guard/substitute path. */
    trace::IntervalRecord collectInterval() override;

    /** Allocation-free collectInterval() (bit-identical records). */
    void collectIntervalInto(trace::IntervalRecord &rec) PPEP_NONBLOCKING
        override;

    /** Health record of the most recent interval. */
    const SampleHealth &lastHealth() const { return health_; }

    /** The acquisition policy in force. */
    const SamplerPolicy &policy() const { return policy_; }

  private:
    /** True when a counter set passes the sanity guards. */
    bool countsPlausible(const sim::EventVector &counts,
                         double duration_s) const PPEP_NONBLOCKING;

    sim::Chip &chip_;
    SamplerPolicy policy_;
    SampleHealth health_;

    /** Per-interval scratch reused by collectIntervalInto(). */
    sim::TickResult tick_;
    std::vector<double> retired_;

    // Last-good state for substitution.
    std::vector<sim::EventVector> last_good_pmc_;
    std::vector<std::size_t> staleness_;
    double last_good_power_w_;
    double last_good_temp_k_;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_SAMPLER_HPP
