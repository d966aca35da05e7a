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

#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::trace {

/**
 * Anything that can advance the chip by one decision interval and hand
 * back its record: the perfect-acquisition Collector below, or the
 * hardened runtime::Sampler (retry, sanity guards, last-good
 * substitution) when the hardware is allowed to misbehave.
 */
class IntervalSource
{
  public:
    virtual ~IntervalSource() = default;

    /** Run one full interval and record it. */
    virtual IntervalRecord collectInterval() = 0;

    /**
     * collectInterval() into a caller-owned record, reusing its vectors —
     * the allocation-free steady-state path. Every field is overwritten.
     * The default forwards to collectInterval(); sources with a hot path
     * override it.
     */
    virtual void collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING
    {
        // rt-escape: legacy fallback — collectInterval() builds a fresh
        // record by contract. Sources used in the fleet steady state
        // (Collector, Sampler) override this with allocation-free paths.
        PPEP_RT_WARMUP_BEGIN
        rec = collectInterval();
        PPEP_RT_WARMUP_END
    }
};

/** Tick-accurate interval collector bound to one chip. */
class Collector : public IntervalSource
{
  public:
    explicit Collector(sim::Chip &chip);

    /** Run one full interval (ticks_per_interval ticks) and record it. */
    IntervalRecord collectInterval() override;

    /** Allocation-free collectInterval() (bit-identical outputs). */
    void collectIntervalInto(IntervalRecord &rec) PPEP_NONBLOCKING override;

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
    /** Per-interval scratch reused by collectIntervalInto(). */
    sim::TickResult tick_;
    std::vector<double> retired_;
};

} // namespace ppep::trace

#endif // PPEP_TRACE_COLLECTOR_HPP
