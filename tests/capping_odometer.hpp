/**
 * @file
 * Test-only golden reference for PpepCappingGovernor: the exhaustive
 * n_vf^n_cus odometer the governor's exact per-rail solver replaced.
 *
 * It prices every per-CU VF assignment one at a time, in odometer
 * order (CU 0 is the fastest digit), and keeps the first feasible
 * assignment with the highest predicted throughput — the paper's
 * Sec. V-B one-step policy taken literally. The solver must return the
 * same decision and the same lastPredictedPower() bits.
 */

#ifndef PPEP_TESTS_CAPPING_ODOMETER_HPP
#define PPEP_TESTS_CAPPING_ODOMETER_HPP

#include <limits>
#include <vector>

#include "ppep/model/ppep.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/trace/interval.hpp"

namespace ppep::oracle {

/** The exhaustive one-step capping search (reference only). */
class CappingOdometer
{
  public:
    CappingOdometer(const sim::ChipConfig &cfg, const model::Ppep &ppep,
                    double guard_band = 0.02);

    /** Same contract as PpepCappingGovernor::decideInto(). */
    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out);

    double lastPredictedPower() const { return last_predicted_power_w_; }

  private:
    const sim::ChipConfig &cfg_;
    const model::Ppep &ppep_;
    double guard_band_;
    double last_predicted_power_w_ =
        std::numeric_limits<double>::quiet_NaN();
    std::vector<double> vscale_by_vf_;
    std::vector<double> ips_;
    std::vector<double> core_base_;
    std::vector<double> nb_part_;
    std::vector<std::size_t> busy_per_cu_;
    std::vector<std::size_t> assign_;
    std::vector<std::size_t> priced_;
};

} // namespace ppep::oracle

#endif // PPEP_TESTS_CAPPING_ODOMETER_HPP
