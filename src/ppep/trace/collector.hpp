/**
 * @file
 * Interval-granularity trace collection on a simulated chip.
 *
 * The Collector plays the role of the paper's measurement harness
 * (msr-tools + the Arduino power logger): it steps the chip tick by tick,
 * averages the sensor/diode streams, reads the multiplexed PMCs once per
 * interval, and stamps each record with the VF context.
 */

#ifndef PPEP_TRACE_COLLECTOR_HPP
#define PPEP_TRACE_COLLECTOR_HPP

#include <span>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::trace {

/**
 * Anything that hands back one decision interval's record: the
 * perfect-acquisition Collector below, the hardened runtime::Sampler
 * (retry, sanity guards, last-good substitution) when the hardware is
 * allowed to misbehave, or a ReplaySource decoding recorded frames.
 */
class IntervalSource
{
  public:
    virtual ~IntervalSource() = default;

    /**
     * Run one full interval into a caller-owned record, reusing its
     * vectors — the allocation-free steady-state path. Every field is
     * overwritten.
     */
    virtual void collectIntervalInto(IntervalRecord &rec)
        PPEP_NONBLOCKING = 0;

    /** collectIntervalInto() into a fresh record. */
    virtual IntervalRecord collectInterval();

    /**
     * What acquisition did to the most recent interval; null when the
     * source keeps no health record (the Collector, a replay stream
     * recorded without one).
     */
    virtual const SampleHealth *health() const { return nullptr; }
};

/** Tick-accurate interval collector bound to one chip. */
class Collector : public IntervalSource
{
  public:
    /**
     * Bind to @p chip. The sample scratch is sized here for the longest
     * interval the chip can run — ticks_per_interval plus the installed
     * fault plan's tick_jitter_max — so install the plan first.
     */
    explicit Collector(sim::Chip &chip);

    /** Run one nominal interval (ticks_per_interval ticks): runTicks(),
     *  plain sensor/diode means, one PMC read per core. */
    void collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING override;

    /**
     * The tick loop of every simulated interval: step the chip
     * @p n_ticks times (at most the longest interval sized at
     * construction) and fill every field of @p rec except the
     * sensor/diode means and pmc. Each tick's raw sensor and diode
     * sample stays in sensorSamples()/diodeSamples() until the next
     * call, for the caller to average.
     */
    void runTicks(std::size_t n_ticks, IntervalRecord &rec)
        PPEP_NONBLOCKING;

    /** Raw per-tick samples of the last runTicks() call. */
    std::span<const double> sensorSamples() const
    {
        return {sensor_.data(), n_ticks_};
    }
    std::span<const double> diodeSamples() const
    {
        return {diode_.data(), n_ticks_};
    }

    /** Collect @p n intervals back to back. */
    std::vector<IntervalRecord> collect(std::size_t n);

    /**
     * Collect until every job on the chip has finished, or until
     * @p max_intervals have elapsed, whichever is first.
     */
    std::vector<IntervalRecord>
    collectUntilFinished(std::size_t max_intervals);

    /** True when no core has an unfinished job. */
    bool allJobsFinished() const;

  private:
    sim::Chip &chip_;
    /** Per-interval scratch of runTicks(), sized at construction. */
    std::vector<double> retired_;
    std::vector<double> sensor_;
    std::vector<double> diode_;
    /** Ticks the last runTicks() call ran. */
    std::size_t n_ticks_ = 0;
};

} // namespace ppep::trace

#endif // PPEP_TRACE_COLLECTOR_HPP
