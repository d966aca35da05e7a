/**
 * @file
 * One core's performance counters, time-multiplexed over the twelve
 * Table I events.
 *
 * A core has a few counter slots (six on the FX-8320) but PPEP needs
 * twelve events, so the paper's daemon rotates the events through the
 * slots one group per tick and extrapolates each event's count by
 * total ticks / ticks its group was counted. Slot s of group g always
 * counts Table I event g * slots + s; slots past E12 stay idle.
 * Benchmarks whose phases flip at the multiplexing timescale therefore
 * show extrapolation error — the outlier mechanism the paper reports
 * for dedup/IS/DC.
 */

#ifndef PPEP_SIM_PMC_HPP
#define PPEP_SIM_PMC_HPP

#include <array>
#include <cstddef>

#include "ppep/sim/events.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** One core's counter slots and the daemon-side multiplexer. */
class PmcMultiplexer
{
  public:
    /**
     * @param n_slots counter slots (6 on the FX-8320).
     * @param stagger initial group offset so different cores need not
     *                rotate in lockstep.
     */
    explicit PmcMultiplexer(std::size_t n_slots, std::size_t stagger = 0);

    /** Number of counter slots. */
    std::size_t slotCount() const PPEP_NONBLOCKING { return n_slots_; }

    /** Number of rotation groups (ceil(12 / slots)). */
    std::size_t groupCount() const { return n_groups_; }

    /**
     * Bound every slot at 2^bits (counts wrap on overflow, like the real
     * 48-bit PERF_CTRs). 0 (the default) leaves counters unbounded.
     */
    void setWrapBits(unsigned bits);

    /** Number of wraparounds observe() has performed since construction. */
    std::size_t wrapEvents() const PPEP_NONBLOCKING { return wrap_events_; }

    /**
     * Hardware tick: each live slot of the current group adds its
     * event's true count, wrapping at the configured width.
     */
    void observe(const EventVector &true_counts) PPEP_NONBLOCKING;

    /**
     * Pin a slot at full scale (2^bits - 1), the injected saturation
     * fault. An idle slot has nothing to corrupt.
     * @pre a wrap width is set.
     */
    void saturate(std::size_t slot) PPEP_NONBLOCKING;

    /**
     * Daemon harvest: add the live slots to the per-event accumulators,
     * zero them and rotate to the next group. A slot keeps its count
     * until harvested, so a skipped harvest carries its tick into the
     * next one, unrotated and covered once.
     */
    void harvest() PPEP_NONBLOCKING;

    /**
     * Extrapolated per-event counts for the harvests since the last
     * reset, then clear.
     *
     * Contract for partial coverage: an event whose group was harvested
     * zero times in the window (harvest preempted, or the window shorter
     * than one full rotation) reads as exactly 0.0 — a defined sentinel,
     * never a division by its zero coverage time. Likewise a window with
     * zero harvests reads all-zero. Callers that must distinguish
     * "counted nothing" from "never scheduled" should check
     * ticksSinceReset() against groupCount() before reading.
     */
    EventVector readAndReset() PPEP_NONBLOCKING;

    /** Harvests since the last reset. */
    std::size_t ticksSinceReset() const PPEP_NONBLOCKING { return ticks_; }

  private:
    /** Slots of the current group that count an event. */
    std::size_t liveSlots() const PPEP_NONBLOCKING;

    std::size_t n_slots_;
    std::size_t n_groups_;
    std::size_t group_;
    std::size_t ticks_ = 0;
    double wrap_modulus_ = 0.0;
    std::size_t wrap_events_ = 0;
    /** Slot counts; no more than kNumEvents slots are ever live. */
    std::array<double, kNumEvents> slots_{};
    EventVector accum_{};
    std::array<std::size_t, kNumEvents> group_ticks_{};
};

} // namespace ppep::sim

#endif // PPEP_SIM_PMC_HPP
