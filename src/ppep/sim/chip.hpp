/**
 * @file
 * The simulated processor: cores, CUs, NB, thermal, ground-truth power,
 * sensor, and PMCs, advanced in 20 ms ticks.
 *
 * The Chip is the hardware boundary. Everything above it (trace
 * collection, PPEP models, governors) may only touch what real software
 * can touch: job placement (taskset), per-CU VF requests (P-state MSRs),
 * PMC reads (msr-tools), the thermal diode (hwmon), and the external
 * power sensor. Ground-truth internals are exposed separately and only
 * for validation/benchmarks via TickResult::truth.
 */

#ifndef PPEP_SIM_CHIP_HPP
#define PPEP_SIM_CHIP_HPP

#include <memory>
#include <optional>
#include <vector>

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/core_model.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/sim/hw_power_model.hpp"
#include "ppep/sim/northbridge.hpp"
#include "ppep/sim/phase.hpp"
#include "ppep/sim/pmc.hpp"
#include "ppep/sim/power_sensor.hpp"
#include "ppep/sim/thermal_model.hpp"
#include "ppep/util/annotations.hpp"
#include "ppep/util/rng.hpp"

namespace ppep::sim {

/** Ground-truth internals of one tick (validation only). */
struct TickTruth
{
    /** True power decomposition. */
    PowerBreakdown power;
    /** Per-core true event counts (no multiplexing). */
    std::vector<EventVector> core_events;
    /** Per-core activity summary. */
    std::vector<CoreActivity> activity;
    /** Per-CU gate state this tick. */
    std::vector<bool> cu_gated;
    /** NB gate state this tick. */
    bool nb_gated = false;
    /** DRAM utilisation from the contention fixed point. */
    double nb_utilization = 0.0;
    /** True junction temperature, kelvin. */
    double temperature_k = 0.0;
};

/** Everything observable (plus truth) from one 20 ms tick. */
struct TickResult
{
    /** Sensor power reading, watts — what training may use. */
    double sensor_power_w = 0.0;
    /** Thermal diode reading, kelvin — what training may use. */
    double diode_temp_k = 0.0;
    /** Ground-truth internals — validation only. */
    TickTruth truth;
};

/** The simulated processor. */
class Chip
{
  public:
    /** Build a chip; @p seed drives every stochastic element. */
    explicit Chip(ChipConfig cfg, std::uint64_t seed = 1);

    /** Static configuration. */
    const ChipConfig &config() const { return cfg_; }

    // --- software-visible controls -------------------------------------

    /** Place (or replace) a job on a core. */
    void setJob(std::size_t core, std::unique_ptr<Job> job);

    /** Remove the job from a core (core halts). */
    void clearJob(std::size_t core);

    /** Job currently on a core; nullptr when idle. */
    const Job *job(std::size_t core) const;

    /**
     * Request a VF state (ascending index) for one CU. Indices past the
     * software table address the hardware boost states
     * (vf_table.size() + k selects boost_states[k]); the hardware grants
     * boost only while few CUs are busy and the die is cool, clamping to
     * the top P-state otherwise.
     */
    void setCuVf(std::size_t cu, std::size_t vf_index) PPEP_NONBLOCKING;

    /** Request a VF state for every CU. */
    void setAllVf(std::size_t vf_index) PPEP_NONBLOCKING;

    /** Requested VF index of a CU. */
    std::size_t cuVf(std::size_t cu) const PPEP_NONBLOCKING;

    /** Total selectable states: P-states plus boost states. */
    std::size_t stateCount() const PPEP_NONBLOCKING;

    /** Operating point of any selectable index (P-state or boost). */
    const VfState &stateOf(std::size_t index) const PPEP_NONBLOCKING;

    /**
     * The state the hardware would actually grant a CU right now: the
     * request, unless it is a boost level the busy-CU count or the die
     * temperature currently forbids.
     */
    std::size_t grantedVf(std::size_t cu) const PPEP_NONBLOCKING;

    /** Enable/disable power gating (the paper's BIOS switch). */
    void setPowerGatingEnabled(bool enabled);

    /** Whether power gating is enabled. */
    bool powerGatingEnabled() const { return pg_enabled_; }

    /** Set the NB operating point (Sec. V-C2 what-if). */
    void setNbVf(const VfState &vf) PPEP_NONBLOCKING { nb_.setVf(vf); }

    /** Current NB operating point. */
    const VfState &nbVf() const PPEP_NONBLOCKING { return nb_.vf(); }

    /**
     * Read-and-reset one core's multiplexed counters (the daemon path
     * the paper uses). Never fails, even with a fault plan installed.
     */
    EventVector readPmc(std::size_t core) PPEP_NONBLOCKING;

    /**
     * Fallible read-and-reset of one core's multiplexed counters. With
     * a fault plan installed the attempt can fail (EAGAIN-style, per
     * FaultPlan::msr_read_fail_p); the multiplexer then keeps
     * accumulating, so a later retry reads a longer window. Returns
     * false and leaves @p out untouched on failure.
     */
    bool tryReadPmc(std::size_t core, EventVector &out) PPEP_NONBLOCKING;

    /**
     * Ticks the core's multiplexer has accumulated since its last
     * successful read — the read window a tryReadPmc() success would
     * cover (longer than one interval after failed reads).
     */
    std::size_t pmcTicksSinceReset(std::size_t core) const PPEP_NONBLOCKING;

    // --- fault injection ------------------------------------------------

    /**
     * Install a fault plan (see sim/fault.hpp): every hardware interface
     * the daemon touches then misbehaves at the configured rates, driven
     * by a dedicated RNG stream derived from @p seed. Strictly opt-in —
     * without this call (or with an all-zero plan) the chip's outputs
     * are bit-identical to a fault-free build. Finite counter width
     * (plan.pmc_wrap_bits) is applied to every core's counters.
     */
    void setFaultPlan(const FaultPlan &plan, std::uint64_t seed);

    /** The installed injector; nullptr when no plan is installed. */
    FaultInjector *faultInjector() { return injector_.get(); }
    const FaultInjector *faultInjector() const { return injector_.get(); }

    /** Total PMC wraparounds across all cores (finite-width counters). */
    std::size_t pmcWrapEvents() const PPEP_NONBLOCKING;

    // --- simulation -----------------------------------------------------

    /** Advance one 20 ms tick. */
    TickResult step();

    /**
     * step() into a caller-owned result, reusing its vectors (and the
     * chip's internal scratch) — the allocation-free per-tick path.
     * Outputs are bit-identical to step().
     */
    void stepInto(TickResult &res) PPEP_NONBLOCKING;

    /** Advance @p n ticks, discarding results (warm-up helper). */
    void run(std::size_t n);

    /** Simulated time elapsed, seconds. */
    double timeS() const { return time_s_; }

    /** True junction temperature (truth; use diode in models). */
    double temperatureK() const { return thermal_.temperature(); }

    /** Force the die temperature (scenario setup). */
    void setTemperatureK(double t) { thermal_.setTemperature(t); }

    /** Effective voltage a CU currently sees (rail sharing resolved). */
    double effectiveCuVoltage(std::size_t cu) const PPEP_NONBLOCKING;

  private:
    /** True when both cores of a CU are idle (no runnable job). */
    bool cuIdle(std::size_t cu) const PPEP_NONBLOCKING;

    /** Whether boost may be granted with @p busy_cus CUs busy now. */
    bool boostAllowed(std::size_t busy_cus) const PPEP_NONBLOCKING;

    /** The state granted for @p requested (see grantedVf()). */
    std::size_t grant(std::size_t requested,
                      bool boost_allowed) const PPEP_NONBLOCKING;

    /** Hidden per-phase activity factor for a core's current phase. */
    double activityFactor(std::size_t core) const PPEP_NONBLOCKING;

    ChipConfig cfg_;
    NorthBridge nb_;
    ThermalModel thermal_;
    HwPowerModel hw_power_;
    PowerSensor sensor_;

    std::vector<std::unique_ptr<Job>> jobs_;
    std::vector<std::size_t> cu_vf_;
    std::vector<PmcMultiplexer> pmc_;
    std::vector<util::Rng> core_rngs_;
    bool pg_enabled_ = false;
    double time_s_ = 0.0;

    /** A P-state write the hardware accepted but has not applied yet. */
    struct PendingVfWrite
    {
        std::size_t cu = 0;
        std::size_t vf_index = 0;
        std::size_t ticks_left = 0;
    };
    std::unique_ptr<FaultInjector> injector_;
    std::vector<PendingVfWrite> pending_vf_;

    /**
     * Per-tick scratch reused by stepInto() so steady-state stepping
     * performs no heap allocation. Sized on first use; never observable
     * from outside a tick.
     */
    struct StepScratch
    {
        std::vector<bool> cu_gated;
        std::vector<double> cu_volt;
        std::vector<double> cu_freq;
        std::vector<PerInstRates> rates;
        std::vector<CoreDemand> demands;
        std::vector<std::size_t> demand_core;
        std::vector<double> act_factor;
        std::vector<CorePowerInput> pins;
        NbResolution nb_res;
    };
    StepScratch scratch_;
};

} // namespace ppep::sim

#endif // PPEP_SIM_CHIP_HPP
