/**
 * @file
 * Ground-truth chip power — the simulated silicon's *actual* draw.
 *
 * This is the quantity the Hall-effect sensor measures and the quantity
 * PPEP's learned models try to approximate. It is deliberately richer than
 * the learned forms:
 *
 *  - leakage is exponential in voltage and temperature (the learned idle
 *    model is linear in T and polynomial in V);
 *  - per-event switching energy scales as V^alpha_true (the learned model
 *    fits its own alpha);
 *  - each workload phase carries a hidden activity factor no linear event
 *    model can explain;
 *  - NB energy is driven by actual L3/DRAM access counts, which PPEP can
 *    only proxy through E8/E9.
 *
 * Nothing in ppep::model may include this header; the only sanctioned
 * couplings are through the sensor, the diode, and the PMCs — same as on
 * real hardware.
 */

#ifndef PPEP_SIM_HW_POWER_MODEL_HPP
#define PPEP_SIM_HW_POWER_MODEL_HPP

#include <vector>

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/core_model.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** Per-core input to the ground-truth power computation for one tick. */
struct CorePowerInput
{
    /** This tick's activity (events, L3/DRAM counts). */
    const CoreActivity *activity = nullptr;
    /** Effective supply voltage seen by this core, volts. */
    double voltage = 0.0;
    /** Core clock, GHz. */
    double freq_ghz = 0.0;
    /** Hidden per-phase activity factor (1.0 = nominal). */
    double activity_factor = 1.0;
};

/** Decomposed true power for one tick, watts. */
struct PowerBreakdown
{
    double total = 0.0;         ///< Everything below summed.
    double base = 0.0;          ///< Always-on package power.
    double housekeeping = 0.0;  ///< OS background dynamic power.
    double nb_static = 0.0;     ///< NB leakage + clock (after gating).
    double nb_dynamic = 0.0;    ///< L3 + DRAM access energy.
    std::vector<double> cu_idle;      ///< Per-CU leakage+clock (gated ok).
    std::vector<double> core_dynamic; ///< Per-core switched energy.

    /** Sum of per-CU idle power. */
    double cuIdleTotal() const PPEP_NONBLOCKING;
    /** Sum of per-core dynamic power. */
    double coreDynamicTotal() const PPEP_NONBLOCKING;
};

/** Stateless ground-truth power evaluator. */
class HwPowerModel
{
  public:
    explicit HwPowerModel(const ChipConfig &cfg);

    /**
     * Compute the chip's true power for one tick into a caller-owned
     * breakdown whose cu_idle and core_dynamic vectors are already
     * sized one per CU and one per core — the allocation-free per-tick
     * path.
     *
     * @param cores       one entry per core, in core-id order.
     * @param cu_gated    per-CU power-gate state.
     * @param nb_gated    whether the NB is power gated.
     * @param cu_voltage  per-CU effective voltage (shared rail already
     *                    resolved by the caller).
     * @param cu_freq_ghz per-CU clock.
     * @param nb_vf       NB operating point.
     * @param temp_k      junction temperature.
     * @param dt_s        tick length (converts event counts to rates).
     * @param out         the result, sized as above.
     */
    void computeInto(const std::vector<CorePowerInput> &cores,
                     const std::vector<bool> &cu_gated, bool nb_gated,
                     const std::vector<double> &cu_voltage,
                     const std::vector<double> &cu_freq_ghz,
                     const VfState &nb_vf, double temp_k, double dt_s,
                     PowerBreakdown &out) const PPEP_NONBLOCKING;

    /** CU leakage+clock power at the given point (before gating). */
    double cuIdlePower(double voltage, double freq_ghz,
                       double temp_k) const PPEP_NONBLOCKING;

    /** NB leakage+clock power at the given point (before gating). */
    double nbStaticPower(const VfState &nb_vf, double temp_k) const PPEP_NONBLOCKING;

    /** Voltage scale factor (v/vref)^alpha_true for switched energy. */
    double dynScale(double voltage) const PPEP_NONBLOCKING;

  private:
    const ChipConfig &cfg_;
    double vref_;    ///< Core reference voltage (top VF state).
    double nb_vref_; ///< NB reference voltage (stock NB point).
};

} // namespace ppep::sim

#endif // PPEP_SIM_HW_POWER_MODEL_HPP
