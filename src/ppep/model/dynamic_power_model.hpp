/**
 * @file
 * Event-rate dynamic power model (paper Sec. IV-B, Eq. 3).
 *
 *     Pdyn = sum_cores [ sum_{i=1..7} (Vn/V5)^alpha * W_i * E_i
 *                        + sum_{i=8,9} W_i * E_i ]
 *
 * where E_i are per-second event counts. The weights are one linear
 * regression trained at the top VF state (a one-time offline effort); the
 * seven core-private event weights are voltage-scaled with a fitted
 * process-specific exponent alpha, while the two NB-proxy events (E8 L2
 * misses, E9 dispatch stalls) are not scaled because the NB stays at a
 * fixed VF state.
 */

#ifndef PPEP_MODEL_DYNAMIC_POWER_MODEL_HPP
#define PPEP_MODEL_DYNAMIC_POWER_MODEL_HPP

#include <array>
#include <vector>

#include "ppep/sim/events.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::model {

/** One training row: summed per-second rates at the training VF. */
struct DynTrainingRow
{
    /** Chip-wide per-second counts for E1..E9. */
    std::array<double, sim::kNumPowerEvents> rates_per_s{};
    /** Measured dynamic power (sensor minus idle estimate), watts. */
    double dynamic_power_w = 0.0;
};

/**
 * The trained Eq. 3 weights repackaged for the batched exploration
 * kernel: the seven voltage-scaled core weights contiguously, plus the
 * two unscaled NB-proxy weights broken out by role (E8 rates are
 * VF-invariant per instruction; the E9 dispatch-stall rate is the one
 * power input that depends on the target CPI).
 */
struct KernelWeights
{
    std::array<double, sim::kNumCorePowerEvents> core{};
    double l2_miss = 0.0;        ///< W_8 (E8, NB-proxy, unscaled)
    double dispatch_stall = 0.0; ///< W_9 (E9, NB-proxy, unscaled)
};

/** The Eq. 3 model. */
class DynamicPowerModel
{
  public:
    DynamicPowerModel() = default;

    /**
     * Fit weights by (non-negative) least squares on rows gathered at
     * training voltage @p v_train, with voltage-scaling exponent
     * @p alpha estimated separately (see Trainer::estimateAlpha).
     *
     * @param non_negative constrain weights to be >= 0 (the default;
     *        they are energies per event, and a negative weight corrupts
     *        the (V/V5)^alpha extrapolation). Pass false only for the
     *        ablation study.
     */
    static DynamicPowerModel train(const std::vector<DynTrainingRow> &rows,
                                   double v_train, double alpha,
                                   bool non_negative = true);

    /**
     * Dynamic power of one core (or any aggregate) from per-second E1..E9
     * rates at core voltage @p voltage. Summing per-core calls with
     * per-core voltages implements Eq. 3's outer sum.
     */
    double estimate(
        const std::array<double, sim::kNumPowerEvents> &rates_per_s,
        double voltage) const PPEP_NONBLOCKING;

    /**
     * Split an estimate into the core part (E1..E7, voltage-scaled) and
     * the NB-proxy part (E8..E9) — used by the Fig. 10 core/NB energy
     * breakdown.
     */
    void split(const std::array<double, sim::kNumPowerEvents> &rates_per_s,
               double voltage, double &core_w, double &nb_w) const PPEP_NONBLOCKING;

    /**
     * The (V / Vtrain)^alpha factor applied to the core-event weights at
     * @p voltage. Callers sweeping many estimates at a fixed voltage
     * (e.g. a per-VF exploration) should compute this once and use
     * splitScaled() below — the pow() dominates a single estimate.
     */
    double voltageScale(double voltage) const PPEP_NONBLOCKING;

    /** split() with a precomputed voltageScale() factor. */
    void splitScaled(
        const std::array<double, sim::kNumPowerEvents> &rates_per_s,
        double vscale, double &core_w, double &nb_w) const PPEP_NONBLOCKING;

    /** The weights repacked for the batched exploration kernel. */
    KernelWeights kernelWeights() const;

    /** Fitted weights W_1..W_9 (watts per event/second). */
    const std::array<double, sim::kNumPowerEvents> &weights() const
    {
        return weights_;
    }

    /** Voltage-scaling exponent. */
    double alpha() const { return alpha_; }

    /** Training voltage (the paper's V5). */
    double trainingVoltage() const { return v_train_; }

    /** Whether train() produced this model. */
    bool trained() const { return trained_; }

    /** Rebuild a trained model from its parameters (serialization). */
    static DynamicPowerModel
    fromWeights(const std::array<double, sim::kNumPowerEvents> &weights,
                double v_train, double alpha);

  private:
    std::array<double, sim::kNumPowerEvents> weights_{};
    double v_train_ = 1.0;
    double alpha_ = 2.0;
    bool trained_ = false;
};

/** Extract chip-wide E1..E9 per-second rates from per-core counts. */
std::array<double, sim::kNumPowerEvents>
powerEventRates(const std::vector<sim::EventVector> &per_core_counts,
                double duration_s);

/** Extract E1..E9 per-second rates from one core's counts. */
std::array<double, sim::kNumPowerEvents>
powerEventRates(const sim::EventVector &counts,
                double duration_s) PPEP_NONBLOCKING;

} // namespace ppep::model

#endif // PPEP_MODEL_DYNAMIC_POWER_MODEL_HPP
