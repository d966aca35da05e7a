/**
 * @file
 * Deterministic hardware fault injection.
 *
 * The paper's daemon runs against real silicon, where every interface it
 * touches misbehaves occasionally: /dev/cpu/N/msr reads fail with EAGAIN
 * under IPI pressure, 48-bit PERF_CTRs wrap and saturate, thermal diodes
 * glitch and stick, P-state writes get rejected or applied late under
 * boost/thermal contention, and the 200 ms timer overruns. The simulated
 * chip is perfect by default; a FaultPlan describes how imperfect it
 * should be, and a FaultInjector turns that plan into a seeded,
 * reproducible stream of fault decisions the Chip consults at each
 * hardware boundary.
 *
 * The layer is strictly opt-in: a Chip without an injector takes no
 * fault branches and produces bit-identical output to a build without
 * this file. A plan with all rates zero injects nothing.
 */

#ifndef PPEP_SIM_FAULT_HPP
#define PPEP_SIM_FAULT_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "ppep/util/rng.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** How imperfect the hardware should be. All rates default to zero. */
struct FaultPlan
{
    // --- counter acquisition (Chip::tryReadPmc / PmcMultiplexer) -------
    /** Probability one PMC read-out attempt fails (EAGAIN-style). */
    double msr_read_fail_p = 0.0;
    /** Physical counter width in bits; 0 leaves counters unbounded.
     *  Real PERF_CTRs are 48-bit; small widths force wraparound. */
    unsigned pmc_wrap_bits = 0;
    /** Probability per core-tick that one random slot saturates to the
     *  counter's full-scale value (requires pmc_wrap_bits > 0). */
    double pmc_slot_saturate_p = 0.0;
    /** Probability per core-tick the software multiplexer misses its
     *  harvest (daemon preempted): the group is not rotated and the
     *  tick's counts bleed into the next harvest. */
    double mux_dropout_p = 0.0;

    // --- thermal diode (thermal_model readout) -------------------------
    /** Probability per tick of a one-tick diode spike. */
    double diode_spike_p = 0.0;
    /** Spike magnitude, kelvin (sign chosen by the injector). */
    double diode_spike_k = 60.0;
    /** Probability per tick the diode latches its current reading. */
    double diode_stuck_p = 0.0;
    /** How many ticks a stuck diode stays stuck. */
    std::size_t diode_stuck_ticks = 25;
    /** Probability per tick the diode read returns garbage (0 K). */
    double diode_dropout_p = 0.0;

    // --- power sensor (power_sensor readout) ---------------------------
    /** Probability per tick of a one-tick full-scale sensor spike. */
    double sensor_spike_p = 0.0;
    /** Spike magnitude, watts. */
    double sensor_spike_w = 400.0;
    /** Probability per tick the sensor sample is lost (reads NaN). */
    double sensor_dropout_p = 0.0;

    // --- VF actuation (vf_state / chip P-state writes) -----------------
    /** Probability a P-state write is silently rejected. */
    double vf_reject_p = 0.0;
    /** Probability a P-state write lands late instead of immediately. */
    double vf_delay_p = 0.0;
    /** How many ticks a delayed write waits before taking effect. */
    std::size_t vf_delay_ticks = 3;

    // --- interval timing (the daemon's 200 ms alarm) -------------------
    /** Probability an interval's tick count is jittered. */
    double tick_jitter_p = 0.0;
    /** Maximum jitter, ticks (uniform in [-max, +max], never below 1). */
    std::size_t tick_jitter_max = 2;

    // --- gradual drift (silicon aging / sensor decalibration) ----------
    /** Per-tick standard deviation of the random walk on the log of the
     *  ground-truth power gain (multiplicative wander of true power). */
    double power_drift_rate = 0.0;
    /** Deterministic per-tick bias on the log power gain (monotone
     *  aging; negative values only settable programmatically). */
    double power_drift_bias = 0.0;
    /** Per-tick standard deviation of the random walk on the log of the
     *  sensor gain (the external power logger decalibrating). */
    double sensor_drift_rate = 0.0;
    /** Deterministic per-tick bias on the log sensor gain. */
    double sensor_drift_bias = 0.0;
    /** Clamp on |log gain| for both walks: gains saturate at
     *  [exp(-clamp), exp(clamp)] instead of diverging. */
    double drift_clamp = 0.5;

    /** True when any fault can ever fire. */
    bool any() const;

    /**
     * Parse a "key=value,key=value" spec, e.g.
     * "msr=0.02,wrap=26,saturate=0.001,mux=0.01,diode_spike=0.005,
     *  sensor_drop=0.01,vf_reject=0.05,jitter=0.1".
     * Unknown keys are fatal(); an empty spec is the all-zero plan.
     */
    static FaultPlan parse(const std::string &spec);

    /** One-line human-readable summary of the nonzero rates. */
    std::string describe() const;
};

/** Cumulative counts of every fault the injector has fired. */
struct FaultCounters
{
    std::size_t msr_read_failures = 0;
    std::size_t pmc_slot_saturations = 0;
    std::size_t mux_dropped_ticks = 0;
    std::size_t diode_spikes = 0;
    std::size_t diode_stuck_ticks = 0;
    std::size_t diode_dropouts = 0;
    std::size_t sensor_spikes = 0;
    std::size_t sensor_dropouts = 0;
    std::size_t vf_rejects = 0;
    std::size_t vf_delays = 0;
    std::size_t jittered_intervals = 0;
    std::size_t drift_ticks = 0;

    /** Sum of every counter (the "how broken was the run" number). */
    std::size_t total() const PPEP_NONBLOCKING;
};

/**
 * The seeded fault decision stream. One injector serves one Chip; all
 * randomness comes from its own Rng, so installing an injector with an
 * all-zero plan perturbs nothing and identical (plan, seed) pairs yield
 * identical fault sequences.
 */
class FaultInjector
{
  public:
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    const FaultPlan &plan() const { return plan_; }
    const FaultCounters &counters() const { return counters_; }

    /** Does this PMC read-out attempt fail? (Counts failures.) */
    bool msrReadFails() PPEP_NONBLOCKING;

    /** Does this core-tick lose its multiplexer harvest? */
    bool muxTickDropped() PPEP_NONBLOCKING;

    /** Slot (if any) that saturates this core-tick. */
    std::optional<std::size_t> saturatedSlot(std::size_t n_slots) PPEP_NONBLOCKING;

    /** Run a diode reading through the glitch model. */
    double corruptDiode(double reading_k) PPEP_NONBLOCKING;

    /** Run a sensor reading through the glitch model. */
    double corruptSensor(double reading_w) PPEP_NONBLOCKING;

    /** Outcome of one P-state write. */
    enum class VfWrite
    {
        Apply,  ///< lands immediately (the default)
        Reject, ///< silently dropped
        Delay,  ///< lands plan.vf_delay_ticks ticks from now
    };
    VfWrite onVfWrite() PPEP_NONBLOCKING;

    /** Jitter an interval's nominal tick count (never below 1). */
    std::size_t jitterTicks(std::size_t nominal) PPEP_NONBLOCKING;

    /** Whether the plan drifts at all (gates the per-tick advance). */
    bool drifting() const PPEP_NONBLOCKING
    {
        return plan_.power_drift_rate > 0.0 ||
               plan_.power_drift_bias != 0.0 ||
               plan_.sensor_drift_rate > 0.0 ||
               plan_.sensor_drift_bias != 0.0;
    }

    /**
     * Advance both drift walks by one tick. The chip calls this once per
     * tick, and only when drifting(): RNG draws happen only for walks
     * with a nonzero rate, so bias-only (or drift-free) plans leave
     * every other fault stream bit-identical.
     */
    void advanceDrift() PPEP_NONBLOCKING;

    /** Current multiplicative gain on ground-truth power. */
    double powerGain() const PPEP_NONBLOCKING { return power_gain_; }

    /** Current multiplicative gain on the power-sensor reading. */
    double sensorGain() const PPEP_NONBLOCKING { return sensor_gain_; }

  private:
    FaultPlan plan_;
    util::Rng rng_;
    FaultCounters counters_;
    std::size_t diode_stuck_left_ = 0;
    double diode_stuck_value_ = 0.0;
    double power_log_gain_ = 0.0;
    double sensor_log_gain_ = 0.0;
    double power_gain_ = 1.0;
    double sensor_gain_ = 1.0;
};

} // namespace ppep::sim

#endif // PPEP_SIM_FAULT_HPP
