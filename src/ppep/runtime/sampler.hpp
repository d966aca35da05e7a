/**
 * @file
 * Hardened interval acquisition for governed runs.
 *
 * trace::Collector assumes perfect hardware: every sensor sample is
 * finite and plausible, every PMC read succeeds, every interval is
 * exactly ticks_per_interval long. The Sampler assumes none of that.
 * It runs the Collector's tick loop (Collector::runTicks) over the
 * interval's actual tick count and replaces only the Collector's
 * trusting read-out:
 *
 *  - bounded retry on failed PMC read-outs, with tick-count
 *    normalisation when a retry finally reads a multi-interval window
 *    (the wraparound-safe-delta discipline applied at interval scale);
 *  - per-sample sanity guards: NaN/Inf rejection and physical range
 *    clamps on the sensor and diode streams, CPI-plausibility rejection
 *    of counter sets corrupted by wraparound or saturation;
 *  - last-good substitution with a staleness budget: a core whose
 *    counters cannot be trusted reports its last sane interval, up to
 *    kStalenessBudget intervals, after which it degrades to the
 *    defined all-zero (halted-core) sentinel rather than stale lies;
 *  - interval-timing tolerance: jittered/overrun intervals report their
 *    true duration so downstream rate math stays correct.
 *
 * Every intervention is counted in a trace::SampleHealth record, which
 * the HealthMonitor and telemetry sinks consume. On clean hardware the
 * Sampler's records are identical to the Collector's.
 */

#ifndef PPEP_RUNTIME_SAMPLER_HPP
#define PPEP_RUNTIME_SAMPLER_HPP

#include <cstddef>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/trace/interval.hpp"

namespace ppep::runtime {

/** Hardened tick-accurate interval acquisition bound to one chip. */
class Sampler : public trace::IntervalSource
{
  public:
    /** Retries after a failed PMC read-out (attempts = retries + 1). */
    static constexpr std::size_t kMaxReadRetries = 3;

    /** Intervals a core may substitute last-good counts before it
     *  degrades to the all-zero halted sentinel. */
    static constexpr std::size_t kStalenessBudget = 5;

    /** Plausible thermal-diode window, kelvin. Outside = glitch. */
    static constexpr double kMinTempK = 230.0;
    static constexpr double kMaxTempK = 420.0;

    static_assert(kStalenessBudget >= 1, "staleness budget >= 1");
    static_assert(kMinTempK < kMaxTempK, "diode window must be non-empty");

    explicit Sampler(sim::Chip &chip);

    /** Run one interval with the full retry/guard/substitute path. */
    void collectIntervalInto(trace::IntervalRecord &rec) PPEP_NONBLOCKING
        override;

    /** Health record of the most recent interval. */
    const trace::SampleHealth &lastHealth() const { return health_; }
    const trace::SampleHealth *health() const override { return &health_; }

  private:
    /** True when a counter set passes the sanity guards. */
    bool countsPlausible(const sim::EventVector &counts,
                         double duration_s) const PPEP_NONBLOCKING;

    sim::Chip &chip_;
    trace::SampleHealth health_;
    /** The tick loop and its scratch. */
    trace::Collector collector_;

    // Last-good state for substitution.
    std::vector<sim::EventVector> last_good_pmc_;
    std::vector<std::size_t> staleness_;
    double last_good_power_w_;
    double last_good_temp_k_;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_SAMPLER_HPP
