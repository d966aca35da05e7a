/**
 * @file
 * Degraded-mode wrapper: a safety shell around any Governor.
 *
 * When the acquisition path reports that its inputs cannot be trusted
 * (fault storm, model divergence), acting on a sophisticated policy's
 * decisions is worse than acting on none: the PPEP exploration that
 * makes the inner governor smart is exactly what corrupted counters
 * poison. Before every decision its owner hands the wrapper a health
 * verdict (setDegraded); while degraded, the wrapper replaces the
 * inner policy with a conservative hold/step-down rule:
 *
 *  - never select a boost state (requests clamp to the software
 *    P-state table);
 *  - hold the current operating point while measured power sits
 *    comfortably under the cap;
 *  - step every CU down one state whenever measured power crosses the
 *    guard band below the cap — measured power is the one input the
 *    hardened sampler still vouches for;
 *  - leave the NB untouched.
 *
 * Control returns to the inner governor the first decision after the
 * verdict reads healthy (runtime::Session takes it from a
 * runtime::HealthMonitor, which requires N consecutive clean
 * intervals, so re-promotion is already hysteretic).
 */

#ifndef PPEP_GOVERNOR_DEGRADED_MODE_HPP
#define PPEP_GOVERNOR_DEGRADED_MODE_HPP

#include "ppep/governor/governor.hpp"

namespace ppep::governor {

/**
 * Wraps an inner Governor and demotes to the safe policy whenever the
 * latest verdict says the interval's data cannot be trusted.
 */
class DegradedModeGovernor : public Governor
{
  public:
    /** Step down when measured power exceeds cap * (1 - kCapGuard);
     *  the margin absorbs sensor noise and the one-interval lag
     *  between deciding and measuring. */
    static constexpr double kCapGuard = 0.1;
    static_assert(kCapGuard >= 0.0 && kCapGuard < 1.0,
                  "cap guard in [0, 1)");

    /**
     * @param chip   consulted for the software P-state table only;
     *               must outlive the governor.
     * @param inner  the policy to run while healthy; must outlive
     *               the governor.
     */
    DegradedModeGovernor(const sim::Chip &chip, Governor &inner);

    std::vector<std::size_t>
    decide(const trace::IntervalRecord &rec, double cap_w) override;

    /** Allocation-free decide() (identical decisions either mode). */
    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) PPEP_NONBLOCKING
        override;

    std::optional<sim::VfState> decideNb() PPEP_NONBLOCKING override;

    std::string name() const override;

    /** Inner exploration while healthy; nullptr while degraded. */
    const std::vector<model::VfPrediction> *
    lastExploration() const PPEP_NONBLOCKING override;

    /** Inner prediction while healthy; NaN while degraded. */
    double lastPredictedPower() const PPEP_NONBLOCKING override;

    /**
     * Govern the following decisions in degraded mode (true) or
     * through the inner policy (false) until told otherwise; a wrapper
     * never told starts healthy. runtime::Session sets this from its
     * HealthMonitor right before each decision.
     */
    void setDegraded(bool degraded) PPEP_NONBLOCKING
    {
        degraded_now_ = degraded;
    }

    /** The verdict in force: true while decisions run the safe
     *  policy. */
    bool degradedNow() const { return degraded_now_; }

    /** Decisions taken in degraded mode so far. */
    std::size_t degradedIntervals() const { return degraded_intervals_; }

  private:
    const sim::Chip &chip_;
    Governor &inner_;
    bool degraded_now_ = false;
    std::size_t degraded_intervals_ = 0;
    double last_predicted_w_;
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_DEGRADED_MODE_HPP
