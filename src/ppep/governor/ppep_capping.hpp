/**
 * @file
 * The PPEP one-step power-capping policy (paper Sec. V-B, Fig. 7).
 *
 * Each interval, PPEP predicts chip power and performance for every
 * per-CU VF assignment (assuming per-CU voltage planes, as prior work
 * [20, 21] does) and jumps directly to the assignment that maximises
 * predicted performance subject to the cap — no iterative search. The
 * paper measures 14x faster cap tracking and 94% adherence versus the
 * reactive baseline's 81%.
 *
 * The search is exact but never visits the n_vf^n_cus assignments one
 * by one, because the prediction separates by CU once the rail level
 * is fixed:
 *  - an idle core predicts all-zero, so a CU with nothing predicted
 *    adds exact +0.0 terms and stays at VF 0 (the lowest-index tie);
 *  - on a shared rail, fix the rail level r (the highest VF any busy
 *    CU requests): idle power is then pBase + pNb + (busy CUs) x
 *    Pidle(CU) at r, and each CU's dynamic power and IPS depend only
 *    on its own VF (busy CUs: at most r, one of them exactly r), priced
 *    at r's voltage; on per-CU planes the CUs separate directly.
 * For each rail level a meet-in-the-middle over the CUs finds the best
 * screened throughput under the budget: enumerate both halves, sort one
 * by power with a prefix maximum of IPS, binary-search the rest of the
 * budget. Screened sums round differently from the reference
 * summation, so the screen only nominates: every assignment within a
 * 1e-9-relative band of the budget and of the best screened IPS is
 * re-priced with the reference summation order and judged by the
 * reference rule (feasible, strictly higher IPS, earlier odometer index
 * on ties). The decision and the predicted-power bits are those of the
 * exhaustive odometer, which tests/ keeps as the oracle. A CU state
 * whose predicted sums are not finite is never chosen; only an
 * infinite prediction, which the odometer would rank, tells them apart.
 */

#ifndef PPEP_GOVERNOR_PPEP_CAPPING_HPP
#define PPEP_GOVERNOR_PPEP_CAPPING_HPP

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"

namespace ppep::governor {

/** Predictive single-step capping built on the PPEP framework. */
class PpepCappingGovernor : public Governor
{
  public:
    /**
     * @param cfg  chip description.
     * @param ppep trained PPEP predictor (must include a PG idle model).
     * @param guard_band derate the cap by this fraction to absorb model
     *             error (the paper's residual 6% violations motivate a
     *             small band).
     */
    PpepCappingGovernor(const sim::ChipConfig &cfg,
                        const model::Ppep &ppep,
                        double guard_band = 0.02);

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                    double cap_w) override;

    /** Allocation-free decide() (identical assignment). */
    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) PPEP_NONBLOCKING
        override;

    std::string name() const override { return "ppep-one-step"; }

    double lastPredictedPower() const PPEP_NONBLOCKING override
    {
        return last_predicted_power_w_;
    }

  private:
    /** One assignment of the CUs in one half of the split. */
    struct HalfCombo
    {
        double power = 0.0;        ///< screened power of its CUs
        double ips = 0.0;          ///< screened IPS of its CUs
        double best_ips = 0.0;     ///< prefix max of ips (right half)
        double best_hit_ips = 0.0; ///< the same over hit entries only
        std::size_t index = 0;     ///< its CUs' odometer-index digits
        bool hit = false;          ///< a busy CU here is at the rail level
    };

    /** The reference rule's running winner over re-priced candidates. */
    struct Winner
    {
        double ips = -1.0;
        double power = std::numeric_limits<double>::quiet_NaN();
        std::size_t index = 0;
        bool found = false;
    };

    /** Per-core per-VF ips / dynamic-power tables and busy counts. */
    void buildTables(const trace::IntervalRecord &rec) PPEP_NONBLOCKING;

    /**
     * Predicted power and IPS of assign_ in the reference summation
     * order (cores in order, then chipIdleMixed) — the bits the
     * decision and lastPredictedPower() are judged on.
     */
    double priceAssignment(double &total_ips) PPEP_NONBLOCKING;

    /** Enumerate search CUs [begin, end) at rail level @p level. */
    std::size_t enumerateHalf(std::size_t begin, std::size_t end,
                              std::size_t level,
                              HalfCombo *dst) PPEP_NONBLOCKING;

    /**
     * Both halves at rail level @p level (per-CU planes: level 0 only)
     * into left_ and right_, the right one sorted by power.
     */
    void enumerateLevel(std::size_t level) PPEP_NONBLOCKING;

    /** Best screened IPS of the level with screened power <= limit. */
    double screenLevel(double limit) PPEP_NONBLOCKING;

    /** Re-price every assignment of the level inside both bands. */
    void nominateLevel(double power_limit, double ips_floor,
                       double budget, Winner &win) PPEP_NONBLOCKING;

    const sim::ChipConfig &cfg_;
    const model::Ppep &ppep_;
    double guard_band_;
    double last_predicted_power_w_ =
        std::numeric_limits<double>::quiet_NaN();
    /** Per-VF rail voltage scales — VF-table-only, hoisted at build. */
    std::vector<double> vscale_by_vf_;
    /**
     * Per-decision scratch reused across intervals (no per-decision
     * heap): flattened per-core-per-VF tables indexed [c * n_vf + vf],
     * their per-CU sums indexed [cu * n_vf + vf], the j-th searched
     * CU's option powers per rail level [(level * n_cus + j) * n_vf +
     * vf], and the current level's half enumerations (all sized at
     * construction).
     */
    std::vector<double> ips_;
    std::vector<double> core_base_;
    std::vector<double> nb_part_;
    std::vector<std::size_t> busy_per_cu_;
    std::vector<double> cu_ips_;
    std::vector<double> cu_base_;
    std::vector<double> cu_nb_;
    std::vector<std::size_t> search_cus_;
    std::vector<double> option_power_;
    std::vector<std::size_t> option_vf_;
    std::vector<HalfCombo> left_;
    std::vector<HalfCombo> right_;
    std::size_t n_left_combos_ = 0;
    std::size_t n_right_combos_ = 0;
    /** This decision's searched-CU count, split and rail constraint. */
    std::size_t n_search_ = 0;
    std::size_t n_left_ = 0;
    bool need_hit_ = false;
    double idle_const_ = 0.0;
    /** Pidle(CU) per VF, read from the PG model each decision. */
    std::vector<double> p_cu_;
    /** Per rail level: least screened power and most IPS it holds. */
    std::vector<double> level_least_power_;
    std::vector<double> level_most_ips_;
    /** Odometer-index weight of each CU's digit: n_vf^cu. */
    std::vector<std::size_t> stride_;
    std::vector<std::size_t> assign_;
    std::vector<std::size_t> priced_;
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_PPEP_CAPPING_HPP
