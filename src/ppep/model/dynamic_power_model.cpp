#include "ppep/model/dynamic_power_model.hpp"

#include <cmath>

#include "ppep/math/least_squares.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::model {

DynamicPowerModel
DynamicPowerModel::train(const std::vector<DynTrainingRow> &rows,
                         double v_train, double alpha, bool non_negative)
{
    PPEP_ASSERT(rows.size() >= sim::kNumPowerEvents,
                "need at least ", sim::kNumPowerEvents,
                " training rows, got ", rows.size());
    PPEP_ASSERT(v_train > 0.0 && alpha > 0.0, "bad training parameters");

    math::Matrix design(rows.size(), sim::kNumPowerEvents);
    std::vector<double> target(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
            design(r, i) = rows[r].rates_per_s[i];
        target[r] = rows[r].dynamic_power_w;
    }

    // Non-negative fit: weights are energies per event; a negative energy
    // would corrupt the (V/V5)^alpha extrapolation to other VF states.
    const auto fit =
        non_negative ? math::fitNonNegativeLeastSquares(design, target)
                     : math::fitLeastSquares(design, target);

    DynamicPowerModel model;
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        model.weights_[i] = fit.coefficients[i];
    model.v_train_ = v_train;
    model.alpha_ = alpha;
    model.trained_ = true;
    return model;
}

DynamicPowerModel
DynamicPowerModel::fromWeights(
    const std::array<double, sim::kNumPowerEvents> &weights,
    double v_train, double alpha)
{
    PPEP_ASSERT(v_train > 0.0 && alpha > 0.0, "bad model parameters");
    DynamicPowerModel model;
    model.weights_ = weights;
    model.v_train_ = v_train;
    model.alpha_ = alpha;
    model.trained_ = true;
    return model;
}

double
DynamicPowerModel::estimate(
    const std::array<double, sim::kNumPowerEvents> &rates_per_s,
    double voltage) const PPEP_NONBLOCKING
{
    double core_w = 0.0, nb_w = 0.0;
    split(rates_per_s, voltage, core_w, nb_w);
    return core_w + nb_w;
}

double
DynamicPowerModel::voltageScale(double voltage) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(trained_, "dynamic power model not trained");
    PPEP_ASSERT(voltage > 0.0, "non-positive voltage");
    return std::pow(voltage / v_train_, alpha_);
}

void
DynamicPowerModel::split(
    const std::array<double, sim::kNumPowerEvents> &rates_per_s,
    double voltage, double &core_w, double &nb_w) const PPEP_NONBLOCKING
{
    splitScaled(rates_per_s, voltageScale(voltage), core_w, nb_w);
}

void
DynamicPowerModel::splitScaled(
    const std::array<double, sim::kNumPowerEvents> &rates_per_s,
    double vscale, double &core_w, double &nb_w) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(trained_, "dynamic power model not trained");
    core_w = 0.0;
    for (std::size_t i = 0; i < sim::kNumCorePowerEvents; ++i)
        core_w += weights_[i] * rates_per_s[i];
    core_w *= vscale;
    nb_w = 0.0;
    for (std::size_t i = sim::kNumCorePowerEvents;
         i < sim::kNumPowerEvents; ++i)
        nb_w += weights_[i] * rates_per_s[i];
}

KernelWeights
DynamicPowerModel::kernelWeights() const
{
    PPEP_ASSERT(trained_, "dynamic power model not trained");
    KernelWeights kw;
    for (std::size_t i = 0; i < sim::kNumCorePowerEvents; ++i)
        kw.core[i] = weights_[i];
    kw.l2_miss = weights_[sim::eventIndex(sim::Event::L2CacheMiss)];
    kw.dispatch_stall =
        weights_[sim::eventIndex(sim::Event::DispatchStall)];
    return kw;
}

std::array<double, sim::kNumPowerEvents>
powerEventRates(const sim::EventVector &counts,
                double duration_s) PPEP_NONBLOCKING
{
    PPEP_ASSERT(duration_s > 0.0, "non-positive duration");
    std::array<double, sim::kNumPowerEvents> rates{};
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        rates[i] = counts[i] / duration_s;
    return rates;
}

std::array<double, sim::kNumPowerEvents>
powerEventRates(const std::vector<sim::EventVector> &per_core_counts,
                double duration_s)
{
    std::array<double, sim::kNumPowerEvents> rates{};
    for (const auto &core : per_core_counts) {
        const auto r = powerEventRates(core, duration_s);
        for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
            rates[i] += r[i];
    }
    return rates;
}

} // namespace ppep::model
