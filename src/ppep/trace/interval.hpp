/**
 * @file
 * Per-interval records: everything PPEP observes in one 200 ms DVFS
 * decision interval, plus ground truth for validation.
 *
 * The paper takes a power reading every 20 ms and uses ten readings per
 * 200 ms interval, averaging them as the interval's power; performance
 * counters are read once per interval (with multiplexed extrapolation).
 *
 * SampleHealth sits beside the record: what acquisition had to do to
 * produce it. The hardened runtime::Sampler fills it live, a replay
 * frame stores its digest-relevant words, and DigestSink hashes the
 * same words.
 */

#ifndef PPEP_TRACE_INTERVAL_HPP
#define PPEP_TRACE_INTERVAL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ppep/sim/events.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/sim/vf_state.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::trace {

/** One 200 ms interval of observations (+ truth for validation). */
struct IntervalRecord
{
    /** Interval length, seconds. */
    double duration_s = 0.0;

    // --- observable by software (model inputs) --------------------------
    /** Per-core multiplexed-and-extrapolated PMC counts. */
    std::vector<sim::EventVector> pmc;
    /** Mean sensor power over the interval's samples, watts. */
    double sensor_power_w = 0.0;
    /** Mean thermal-diode reading, kelvin. */
    double diode_temp_k = 0.0;
    /** Requested VF index per CU at collection time. */
    std::vector<std::size_t> cu_vf;
    /** NB operating point at collection time. */
    sim::VfState nb_vf{};

    // --- ground truth (validation only) ---------------------------------
    /** Per-core true event counts (no multiplexing). */
    std::vector<sim::EventVector> oracle;
    /** Mean true total power, watts. */
    double true_power_w = 0.0;
    /** Mean true dynamic power (core switched + NB access energy). */
    double true_dynamic_w = 0.0;
    /** Mean true idle power (base + housekeeping + statics). */
    double true_idle_w = 0.0;
    /** Mean true NB power (static + dynamic). */
    double true_nb_power_w = 0.0;
    /** Mean true junction temperature, kelvin. */
    double true_temp_k = 0.0;
    /** Mean DRAM utilisation. */
    double nb_utilization = 0.0;
    /** Number of cores that retired instructions this interval. */
    std::size_t busy_cores = 0;

    /** Summed PMC counts across cores for one event. */
    double pmcTotal(sim::Event e) const;
    /** Summed oracle counts across cores for one event. */
    double oracleTotal(sim::Event e) const;
};

/** Everything acquisition did to one interval (plus cumulative state). */
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
    /** Snapshot of the chip injector's counters (zero when absent).
     *  Not part of words(): it describes the simulated hardware, not
     *  the observed stream. */
    sim::FaultCounters injected{};
    /** Total PMC wraparounds the hardware performed. */
    std::size_t pmc_wrap_events = 0;
    /** Running sum of faultEvents() over all intervals. */
    std::size_t total_fault_events = 0;

    /** Digest-relevant fields as fixed-order words. */
    using Words = std::array<std::uint64_t, 11>;

    /** The one field order: a replay frame's health block stores these
     *  words, and DigestSink hashes them. */
    Words words() const PPEP_NONBLOCKING
    {
        return {msr_retries,        msr_failed_cores,
                pmc_rejected_cores, substituted_cores,
                zeroed_cores,       sensor_rejects,
                diode_rejects,      ticks,
                timing_overrun ? 1u : 0u,
                pmc_wrap_events,    total_fault_events};
    }

    /** Inverse of words(); injected stays zero. */
    static SampleHealth fromWords(const Words &w) PPEP_NONBLOCKING
    {
        SampleHealth h;
        h.msr_retries = w[0];
        h.msr_failed_cores = w[1];
        h.pmc_rejected_cores = w[2];
        h.substituted_cores = w[3];
        h.zeroed_cores = w[4];
        h.sensor_rejects = w[5];
        h.diode_rejects = w[6];
        h.ticks = w[7];
        h.timing_overrun = w[8] != 0;
        h.pmc_wrap_events = w[9];
        h.total_fault_events = w[10];
        return h;
    }
};

} // namespace ppep::trace

#endif // PPEP_TRACE_INTERVAL_HPP
