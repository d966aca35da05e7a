/**
 * @file
 * Fleet-level power-budget arbitration: one global watt contract split
 * into per-session caps every interval.
 *
 * The paper's systems win (Fig. 7) is that PPEP turns power capping
 * from an iterative search into a single predicted step, because every
 * node already knows its power at every VF state. BudgetArbiter is the
 * fleet-scale analogue: once per interval it gathers every session's
 * per-VF predicted-power row (already materialized by the session's
 * governor exploration) into flat SoA scratch and solves the global
 * allocation in one greedy water-filling sweep over the
 * (session x VF) table — marginal throughput per watt, per-session
 * priority weights, SLO floors, hierarchical tier budgets
 * (rack -> node), and hysteresis so caps don't thrash. The retained
 * IterativeFleetArbiter steps caps reactively from measured power, the
 * fleet-scale equivalent of governor/iterative_capping, so
 * `ppep fleet --arbiter iterative` and test_runtime_arbiter can
 * reproduce the Fig. 7 comparison at fleet scale.
 *
 * Determinism contract: decide() is a pure function of the gathered
 * rows, the measured powers, and the arbiter's own per-session state.
 * runtime::Fleet gathers on worker threads into disjoint per-session
 * SoA lanes and runs decide() serially inside a std::barrier
 * completion step, so fleet telemetry is bit-identical at any thread
 * count. The gather/decide path is PPEP_NONBLOCKING and allocation
 * free once configure() has sized the scratch (test_zero_alloc).
 */

#ifndef PPEP_RUNTIME_ARBITER_HPP
#define PPEP_RUNTIME_ARBITER_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/util/annotations.hpp"
#include "ppep/util/thread_annotations.hpp"

namespace ppep::runtime {

/**
 * Phantom capability naming the fleet's barrier-serial section: the
 * one-thread-at-a-time completion step of the interval barrier (or a
 * test's single-threaded harness). FleetArbiter::decide() requires it,
 * so — under the PPEP_THREAD_SAFETY build — decide() can only be
 * called from a scope holding a util::RoleGuard on this role, i.e.
 * from code that has explicitly claimed serial execution. The role is
 * a pure annotation: claiming it never blocks and costs nothing, which
 * is the point — the decide path must stay lock-free
 * (PPEP_NONBLOCKING), and any real mutex added to it by accident is a
 * -Werror=function-effects error, not an added capability.
 */
inline util::Role kArbiterSerialRole;

/** One tier (rack, row, ...) with its own sub-budget. */
struct ArbiterTierSpec
{
    std::string name;
    /** Watts this tier's sessions may draw together. */
    double budget_w = std::numeric_limits<double>::max();
};

/**
 * Per-interval arbitration snapshot handed to ArbiterObserver right
 * after decide(): the caps just installed (governing the *next*
 * interval) and the powers measured over the interval that just
 * closed. Pointers are valid only for the duration of the call.
 */
struct ArbiterIntervalView
{
    std::size_t interval = 0;
    /** Budget governing the interval that just closed. */
    double budget_w = 0.0;
    /** Budget the freshly installed caps target (next interval). */
    double next_budget_w = 0.0;
    const double *caps = nullptr;
    const double *measured = nullptr;
    std::size_t n_sessions = 0;
    /** Budget minus predicted consumption under the installed caps. */
    double headroom_w = 0.0;
    /** Measured power over the closed interval exceeded its budget. */
    bool violation = false;
};

/** Called once per interval after decide(); must not throw (it runs
 *  inside the fleet's barrier completion step). */
using ArbiterObserver = std::function<void(const ArbiterIntervalView &)>;

/** Fleet-level arbitration configuration (FleetSpec::arbiter). */
struct ArbiterSpec
{
    /** The global watt contract, possibly time-varying (Fig. 7-style
     *  budget drops). Unlimited leaves every session uncapped. */
    ppep::governor::CapSchedule budget =
        ppep::governor::CapSchedule::unlimited();
    /** Tier sub-budgets; empty = one implicit unlimited tier. Sessions
     *  without an explicit FleetSessionSpec::tier are assigned
     *  round-robin (session index mod tier count). */
    std::vector<ArbiterTierSpec> tiers;
    /** Use the iterative reactive baseline instead of the single-pass
     *  predictive sweep. */
    bool iterative = false;
    /** Optional per-interval hook (soak tests, live dashboards). */
    ArbiterObserver observer;
};

/** End-of-run arbitration rollup (FleetResult::arbiter). */
struct ArbiterReport
{
    /** False when the fleet ran without an arbiter. */
    bool active = false;
    /** "single-pass" or "iterative". */
    std::string policy;
    /** Budget in force at the final interval. */
    double final_budget_w = 0.0;
    std::size_t intervals = 0;
    /** Intervals whose *measured* fleet power exceeded the budget —
     *  latches only on genuine overshoot, never on cap bookkeeping. */
    std::size_t violation_intervals = 0;
    /** Intervals where floors alone exceeded the budget and every cap
     *  was scaled proportionally. */
    std::size_t infeasible_intervals = 0;
    /** Self-check: intervals where the installed caps summed above the
     *  budget (beyond FP tolerance). Always 0. */
    std::size_t cap_sum_violations = 0;
    /** Headroom statistics over finite-budget intervals. */
    double mean_headroom_w = 0.0;
    double min_headroom_w = std::numeric_limits<double>::max();
    /** decide() wall-clock statistics, seconds. */
    double mean_decide_s = 0.0;
    double max_decide_s = 0.0;
    /** Budget-drop events and how fast measured power re-settled
     *  under the lowered budget (the Fig. 7 responsiveness metric). */
    std::size_t budget_drops = 0;
    double mean_settle_intervals = 0.0;
    std::size_t max_settle_intervals = 0;
};

/**
 * Shared machinery of both arbiters: SoA scratch sized once by
 * configure(), per-session gather lanes, and the per-interval
 * statistics (violations, settle, headroom, cap-sum self-check)
 * wrapped around the policy-specific decideImpl().
 */
class FleetArbiter
{
  public:
    /** What the fleet tells the arbiter about one session lane. */
    struct SessionSetup
    {
        /** Weight in the marginal-throughput sweep and in blind /
         *  leftover splits; 0 removes the lane from arbitration. */
        double priority = 1.0;
        /** Never cap this session below this (SLO floor), unless the
         *  floors alone are infeasible. */
        double slo_floor_w = 0.0;
        /** Tier index; nullopt = round-robin over the spec's tiers. */
        std::optional<std::size_t> tier;
        /** VF states this session's exploration covers (its SoA lane
         *  width). */
        std::size_t n_vf = 0;
    };

    virtual ~FleetArbiter() = default;

    /** Size every SoA lane and stat; the only allocating call. */
    void configure(const ArbiterSpec &spec,
                   const std::vector<SessionSetup> &sessions);

    /**
     * Deposit session @p s's per-VF exploration and measured power for
     * this interval into its SoA lane. @p rows may be null / @p n may
     * be 0 (no exploration yet, degraded governor, dead session): the
     * lane then arbitrates blind this interval. Lanes are disjoint, so
     * workers gather their own sessions concurrently.
     */
    void gather(std::size_t s, const model::VfPrediction *rows,
                std::size_t n, double measured_w) PPEP_NONBLOCKING;

    /**
     * Solve the allocation for the *next* interval (caps installed now
     * govern interval @p interval + 1, exactly like a governor's
     * decide) and fold this interval's measured powers into the
     * violation/settle statistics. Serial, deterministic,
     * allocation-free once configured. Clears the gather lanes. Callers
     * claim kArbiterSerialRole (via util::RoleGuard) to assert they sit
     * in the barrier-serial section.
     */
    void decide(std::size_t interval)
        PPEP_NONBLOCKING PPEP_REQUIRES(kArbiterSerialRole);

    /** Cap installed for session @p s by the latest decide(). */
    double capOf(std::size_t s) const PPEP_NONBLOCKING
    {
        return caps_[s];
    }

    /** Watts the latest decide() denied session @p s: its unconstrained
     *  max-throughput demand minus its cap, clamped at 0. */
    double throttledOf(std::size_t s) const PPEP_NONBLOCKING
    {
        return throttled_[s];
    }

    /** Fold one externally timed decide() wall-clock sample in. */
    void noteDecideSeconds(double s) PPEP_NONBLOCKING;

    // Observer-view accessors (valid after decide()).
    const double *capsData() const PPEP_NONBLOCKING { return caps_.data(); }
    const double *measuredData() const PPEP_NONBLOCKING
    {
        return measured_.data();
    }
    double headroomLastW() const PPEP_NONBLOCKING { return headroom_last_; }
    bool lastViolation() const PPEP_NONBLOCKING { return last_violation_; }
    double budgetAt(std::size_t interval) const PPEP_NONBLOCKING
    {
        return budget_.capAt(interval);
    }

    /** "single-pass" or "iterative". */
    virtual const char *policyName() const = 0;

    /** End-of-run rollup. */
    ArbiterReport report() const;

  protected:
    /** Install caps_ for every lane given the budget that will govern
     *  the next interval; also set headroom_last_. */
    virtual void decideImpl(std::size_t interval,
                            double next_budget_w) PPEP_NONBLOCKING = 0;

    /** Size policy-specific scratch off the lane geometry; called at
     *  the end of configure() (the only allocating phase). */
    virtual void onConfigured() {}

    static bool finiteBudget(double b) PPEP_NONBLOCKING
    {
        return b < 0.5 * std::numeric_limits<double>::max();
    }

    // --- configuration (immutable after configure()) -----------------
    ppep::governor::CapSchedule budget_ =
        ppep::governor::CapSchedule::unlimited();
    std::size_t n_ = 0;      ///< session lanes
    std::size_t stride_ = 0; ///< widest per-session VF row
    std::vector<double> priority_;
    std::vector<double> floor_;
    std::vector<std::size_t> tier_;      ///< lane -> tier index
    std::vector<double> tier_budget_w_;  ///< per-tier sub-budget
    double priority_total_ = 0.0;

    // --- gather lanes (worker-written, disjoint per session) ---------
    std::vector<double> pred_w_; ///< n_ x stride_ predicted chip power
    std::vector<double> ips_;    ///< n_ x stride_ predicted throughput
    std::vector<std::size_t> n_rows_; ///< rows gathered this interval
    std::vector<double> measured_;    ///< measured power this interval

    // --- decide outputs ----------------------------------------------
    std::vector<double> caps_;
    std::vector<double> prev_cap_;
    std::vector<double> throttled_;
    std::vector<double> desired_; ///< uncapped max-throughput demand
    double headroom_last_ = 0.0;
    bool last_violation_ = false;
    std::size_t infeasible_intervals_ = 0;

  private:
    // --- statistics ---------------------------------------------------
    std::size_t intervals_ = 0;
    std::size_t violation_intervals_ = 0;
    std::size_t cap_sum_violations_ = 0;
    double headroom_sum_w_ = 0.0;
    double headroom_min_w_ = std::numeric_limits<double>::max();
    std::size_t headroom_samples_ = 0;
    double decide_sum_s_ = 0.0;
    double decide_max_s_ = 0.0;
    std::size_t decide_samples_ = 0;
    std::size_t budget_drops_ = 0;
    bool settling_ = false;
    std::size_t settle_count_ = 0;
    double settle_sum_ = 0.0;
    std::size_t settle_events_ = 0;
    std::size_t settle_max_ = 0;
};

/**
 * The single-pass predictive arbiter (the tentpole): per sighted
 * session, build the upper concave hull over its (power, throughput)
 * exploration points — hull steps have non-increasing marginal
 * throughput per watt — then sweep all hulls' steps in one global
 * priority-weighted score order, granting each step while both the
 * global and the session's tier budget allow it. Freeze-on-skip keeps
 * each session's allocation on its hull; leftover headroom is split by
 * priority within tier limits; hysteresis suppresses cap raises under
 * kHysteresisW. Sessions with no exploration this interval (interval 0,
 * degraded governors, failed builds) fall back to a
 * priority-proportional blind share. When the SLO floors alone exceed
 * the budget, every cap scales proportionally and the interval counts
 * as infeasible.
 */
class BudgetArbiter final : public FleetArbiter
{
  public:
    /** Suppress cap *raises* smaller than this, watts (lowering always
     *  applies), so near-balanced allocations don't thrash. */
    static constexpr double kHysteresisW = 0.5;

    const char *policyName() const override { return "single-pass"; }

  protected:
    void decideImpl(std::size_t interval,
                    double next_budget_w) PPEP_NONBLOCKING override;
    void onConfigured() override;

  private:
    // Per-session hull scratch (<= stride_ entries each).
    std::vector<std::size_t> row_order_; ///< rows by ascending power
    std::vector<double> hull_p_;
    std::vector<double> hull_i_;
    // Global step table (<= n_ x stride_ entries).
    std::vector<double> step_dp_;
    std::vector<double> step_score_;
    std::vector<std::uint32_t> step_sess_;
    std::vector<std::uint32_t> order_;
    // Per-session sweep state.
    std::vector<double> base_w_;      ///< min-power (or blind) watts
    std::vector<double> alloc_w_;     ///< granted cap before hysteresis
    std::vector<double> chosen_pred_w_; ///< predicted draw at grant
    std::vector<std::uint8_t> frozen_;
    std::vector<std::uint8_t> sighted_;
    // Per-tier sweep state.
    std::vector<double> tier_rem_w_;
    std::vector<double> tier_prio_;
    std::vector<double> tier_give_w_;
};

/**
 * The retained reactive baseline (fleet-scale
 * governor/iterative_capping): start from a priority-proportional
 * split, step every cap down by 2 W while the measured fleet power
 * exceeds the budget, step back up 2 W at a time only when measured
 * power leaves 8 W of slack. Converges over several intervals after a
 * budget drop — the Fig. 7 comparison point for the single-pass
 * BudgetArbiter.
 */
class IterativeFleetArbiter final : public FleetArbiter
{
  public:
    const char *policyName() const override { return "iterative"; }

  protected:
    void decideImpl(std::size_t interval,
                    double next_budget_w) PPEP_NONBLOCKING override;

  private:
    bool initialised_ = false;
};

/** Build the spec's arbiter (allocates; call before the drive). */
std::unique_ptr<FleetArbiter>
makeArbiter(const ArbiterSpec &spec,
            const std::vector<FleetArbiter::SessionSetup> &sessions);

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_ARBITER_HPP
