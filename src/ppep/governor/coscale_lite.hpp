/**
 * @file
 * CoScale-lite: coordinated core + north-bridge DVFS driven by PPEP
 * predictions.
 *
 * The paper positions PPEP as a better CPU estimator for system-level
 * coordinated-DVFS frameworks ("PPEP could also be included in
 * system-level models, such as CoScale [6]"), and its Sec. V-C2 what-if
 * argues a scalable NB is worth building. This governor closes that
 * loop: every interval it evaluates all (core VF, NB VF) combinations —
 * pricing the low NB point with the Sec. V-C2 factors (idle x0.60,
 * dynamic x0.64, leading-load cycles x1.50) — and picks the
 * minimum-energy pair whose predicted throughput stays within a
 * performance-loss budget of the fastest configuration, CoScale's
 * contract.
 *
 * Because the simulated chip really implements NB DVFS, this runs
 * closed-loop: mispredictions of the assumed factors show up in the
 * measured trace, not just on paper.
 */

#ifndef PPEP_GOVERNOR_COSCALE_LITE_HPP
#define PPEP_GOVERNOR_COSCALE_LITE_HPP

#include "ppep/governor/energy_explorer.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"

namespace ppep::governor {

/** Coordinated core+NB energy-minimising DVFS under a slowdown budget. */
class CoScaleLiteGovernor : public Governor
{
  public:
    /**
     * @param cfg         platform (must support PG — the idle split
     *                    prices gated CUs).
     * @param ppep        trained predictor with a PG idle model.
     * @param max_slowdown allowed throughput loss vs. the fastest
     *                    configuration (CoScale's performance
     *                    constraint), e.g. 0.10 for 10%.
     */
    CoScaleLiteGovernor(const sim::ChipConfig &cfg,
                        const model::Ppep &ppep, double max_slowdown);

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                    double cap_w) override;

    std::optional<sim::VfState> decideNb() PPEP_NONBLOCKING override;

    std::string name() const override { return "coscale-lite"; }

    /** Whether the last decision chose the low NB point. */
    bool lastNbLow() const { return nb_low_; }

  private:
    const sim::ChipConfig &cfg_;
    const model::Ppep &ppep_;
    double max_slowdown_;
    NbWhatIfFactors factors_{};
    bool nb_low_ = false;
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_COSCALE_LITE_HPP
