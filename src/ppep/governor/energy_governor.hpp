/**
 * @file
 * Energy- and EDP-optimal predictive DVFS (paper contribution #2: "a
 * predictive DVFS controller can use PPEP to explore the energy-delay
 * space and pick energy- and EDP-optimal points with high accuracy").
 *
 * Every interval the governor evaluates PPEP's predictions at all VF
 * states and jumps straight to the one minimising fixed-work energy
 * (J/instruction) or fixed-work EDP — one step, no search trajectory.
 */

#ifndef PPEP_GOVERNOR_ENERGY_GOVERNOR_HPP
#define PPEP_GOVERNOR_ENERGY_GOVERNOR_HPP

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"

namespace ppep::governor {

/** What the governor optimises. */
enum class EnergyObjective
{
    Energy, ///< minimise predicted energy per instruction
    Edp,    ///< minimise predicted energy-delay per instruction
};

/** One-step energy/EDP-optimal global DVFS. */
class EnergyOptimalGovernor : public Governor
{
  public:
    EnergyOptimalGovernor(const sim::ChipConfig &cfg,
                          const model::Ppep &ppep,
                          EnergyObjective objective);

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                    double cap_w) override;

    /** Allocation-free decide() (identical choice). */
    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) PPEP_NONBLOCKING
        override;

    std::string name() const override;

    const std::vector<model::VfPrediction> *
    lastExploration() const PPEP_NONBLOCKING override
    {
        return preds_.empty() ? nullptr : &preds_;
    }

    double lastPredictedPower() const PPEP_NONBLOCKING override
    {
        return last_predicted_power_w_;
    }

  private:
    const sim::ChipConfig &cfg_;
    const model::Ppep &ppep_;
    EnergyObjective objective_;
    std::size_t last_choice_;
    /** Exploration buffers reused every interval (no per-decision heap). */
    std::vector<model::VfPrediction> preds_;
    model::ExploreScratch scratch_;
    double last_predicted_power_w_ =
        std::numeric_limits<double>::quiet_NaN();
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_ENERGY_GOVERNOR_HPP
