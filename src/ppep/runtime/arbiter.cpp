#include "ppep/runtime/arbiter.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::runtime {

namespace {

constexpr double kInf = std::numeric_limits<double>::max();

} // namespace

void
FleetArbiter::configure(const ArbiterSpec &spec,
                        const std::vector<SessionSetup> &sessions)
{
    PPEP_ASSERT(!sessions.empty(), "arbiter has no session lanes");
    budget_ = spec.budget;
    n_ = sessions.size();
    stride_ = 1;
    for (const auto &s : sessions)
        stride_ = std::max(stride_, s.n_vf);

    const std::size_t n_tiers = std::max<std::size_t>(
        1, spec.tiers.size());
    tier_budget_w_.assign(n_tiers, kInf);
    for (std::size_t t = 0; t < spec.tiers.size(); ++t)
        tier_budget_w_[t] = spec.tiers[t].budget_w;

    priority_.resize(n_);
    floor_.resize(n_);
    tier_.resize(n_);
    priority_total_ = 0.0;
    for (std::size_t s = 0; s < n_; ++s) {
        PPEP_ASSERT(sessions[s].priority >= 0.0,
                    "arbiter priority must be non-negative");
        PPEP_ASSERT(sessions[s].slo_floor_w >= 0.0,
                    "arbiter SLO floor must be non-negative");
        priority_[s] = sessions[s].priority;
        floor_[s] = sessions[s].slo_floor_w;
        const std::size_t t = sessions[s].tier
                                  ? *sessions[s].tier
                                  : s % n_tiers;
        PPEP_ASSERT(t < n_tiers, "arbiter tier index out of range");
        tier_[s] = t;
        priority_total_ += priority_[s];
    }

    pred_w_.assign(n_ * stride_, 0.0);
    ips_.assign(n_ * stride_, 0.0);
    n_rows_.assign(n_, 0);
    measured_.assign(n_, 0.0);
    caps_.assign(n_, kInf);
    prev_cap_.assign(n_, kInf);
    throttled_.assign(n_, 0.0);
    desired_.assign(n_, 0.0);

    onConfigured();
}

void
FleetArbiter::gather(std::size_t s, const model::VfPrediction *rows,
                     std::size_t n, double measured_w) PPEP_NONBLOCKING
{
    measured_[s] = measured_w;
    if (rows == nullptr || n == 0) {
        n_rows_[s] = 0;
        return;
    }
    const std::size_t take = std::min(n, stride_);
    double *pred = pred_w_.data() + s * stride_;
    double *ips = ips_.data() + s * stride_;
    for (std::size_t k = 0; k < take; ++k) {
        pred[k] = rows[k].chip_power_w;
        ips[k] = rows[k].total_ips;
    }
    n_rows_[s] = take;
}

void
FleetArbiter::decide(std::size_t interval)
    PPEP_NONBLOCKING PPEP_REQUIRES(kArbiterSerialRole)
{
    const double b_now = budget_.capAt(interval);
    // Caps installed now govern the *next* interval, exactly like a
    // governor's decide; the budget they must meet is next interval's.
    const double b_next = budget_.capAt(interval + 1);

    // Each lane's unconstrained demand: predicted power at its
    // max-throughput VF (ties to the lower index), for throttled-watt
    // accounting. Blind lanes demand nothing measurable.
    for (std::size_t s = 0; s < n_; ++s) {
        const std::size_t rows = n_rows_[s];
        if (rows == 0) {
            desired_[s] = 0.0;
            continue;
        }
        const double *pred = pred_w_.data() + s * stride_;
        const double *ips = ips_.data() + s * stride_;
        std::size_t best = 0;
        for (std::size_t k = 1; k < rows; ++k)
            if (ips[k] > ips[best])
                best = k;
        desired_[s] = pred[best];
    }

    decideImpl(interval, b_next);

    for (std::size_t s = 0; s < n_; ++s) {
        const double cap = caps_[s];
        throttled_[s] =
            (n_rows_[s] > 0 && finiteBudget(cap))
                ? std::max(0.0, desired_[s] - cap)
                : 0.0;
    }

    double sum_measured = 0.0;
    for (std::size_t s = 0; s < n_; ++s)
        sum_measured += measured_[s];

    last_violation_ = false;
    if (finiteBudget(b_now)) {
        // Latch only on genuine measured overshoot of the budget that
        // actually governed this interval.
        if (sum_measured > b_now) {
            ++violation_intervals_;
            last_violation_ = true;
        }
        if (interval > 0 && b_now < budget_.capAt(interval - 1)) {
            ++budget_drops_;
            settling_ = true;
            settle_count_ = 0;
        }
        if (settling_) {
            ++settle_count_;
            // Same 2% grace band as governor::meanSettleIntervals.
            if (sum_measured <= b_now * 1.02) {
                settle_sum_ += static_cast<double>(settle_count_);
                settle_max_ = std::max(settle_max_, settle_count_);
                ++settle_events_;
                settling_ = false;
            }
        }
        headroom_sum_w_ += headroom_last_;
        headroom_min_w_ = std::min(headroom_min_w_, headroom_last_);
        ++headroom_samples_;
    }
    if (finiteBudget(b_next)) {
        double cap_sum = 0.0;
        for (std::size_t s = 0; s < n_; ++s)
            cap_sum += caps_[s];
        // FP tolerance: the sweep subtracts grants from a running
        // remainder, so the sum can sit within an ulp of the budget.
        if (cap_sum > b_next * (1.0 + 1e-9) + 1e-6)
            ++cap_sum_violations_;
    }
    ++intervals_;

    // Lanes must re-gather every interval; stale rows never carry over.
    for (std::size_t s = 0; s < n_; ++s)
        n_rows_[s] = 0;
}

void
FleetArbiter::noteDecideSeconds(double s) PPEP_NONBLOCKING
{
    decide_sum_s_ += s;
    decide_max_s_ = std::max(decide_max_s_, s);
    ++decide_samples_;
}

ArbiterReport
FleetArbiter::report() const
{
    ArbiterReport r;
    r.active = true;
    r.policy = policyName();
    r.final_budget_w =
        intervals_ ? budget_.capAt(intervals_ - 1) : budget_.capAt(0);
    r.intervals = intervals_;
    r.violation_intervals = violation_intervals_;
    r.infeasible_intervals = infeasible_intervals_;
    r.cap_sum_violations = cap_sum_violations_;
    if (headroom_samples_) {
        r.mean_headroom_w =
            headroom_sum_w_ / static_cast<double>(headroom_samples_);
        r.min_headroom_w = headroom_min_w_;
    }
    if (decide_samples_) {
        r.mean_decide_s =
            decide_sum_s_ / static_cast<double>(decide_samples_);
        r.max_decide_s = decide_max_s_;
    }
    r.budget_drops = budget_drops_;
    if (settle_events_) {
        r.mean_settle_intervals =
            settle_sum_ / static_cast<double>(settle_events_);
        r.max_settle_intervals = settle_max_;
    }
    return r;
}

// ---------------------------------------------------------------------------
// BudgetArbiter: the single-pass predictive sweep.
// ---------------------------------------------------------------------------

void
BudgetArbiter::onConfigured()
{
    row_order_.assign(stride_, 0);
    hull_p_.assign(stride_, 0.0);
    hull_i_.assign(stride_, 0.0);
    const std::size_t max_steps = n_ * stride_;
    step_dp_.assign(max_steps, 0.0);
    step_score_.assign(max_steps, 0.0);
    step_sess_.assign(max_steps, 0);
    order_.assign(max_steps, 0);
    base_w_.assign(n_, 0.0);
    alloc_w_.assign(n_, 0.0);
    chosen_pred_w_.assign(n_, 0.0);
    frozen_.assign(n_, 0);
    sighted_.assign(n_, 0);
    const std::size_t n_tiers = tier_budget_w_.size();
    tier_rem_w_.assign(n_tiers, 0.0);
    tier_prio_.assign(n_tiers, 0.0);
    tier_give_w_.assign(n_tiers, 0.0);
}

void
BudgetArbiter::decideImpl(std::size_t /*interval*/,
                          double next_budget_w) PPEP_NONBLOCKING
{
    const double b = next_budget_w;
    if (!finiteBudget(b)) {
        for (std::size_t s = 0; s < n_; ++s) {
            caps_[s] = kInf;
            prev_cap_[s] = kInf;
        }
        headroom_last_ = kInf;
        return;
    }

    const std::size_t n_tiers = tier_budget_w_.size();

    // Base allocation: sighted lanes start at their min-power VF (or
    // their SLO floor if higher); blind lanes take a priority-
    // proportional share of the budget outright — the cold-start /
    // degraded fallback — and are excluded from the sweep.
    double sum_base = 0.0;
    for (std::size_t t = 0; t < n_tiers; ++t)
        tier_rem_w_[t] = tier_budget_w_[t];
    for (std::size_t s = 0; s < n_; ++s) {
        const std::size_t rows = n_rows_[s];
        sighted_[s] = rows > 0 ? 1 : 0;
        frozen_[s] = 0;
        double base;
        if (rows > 0) {
            const double *pred = pred_w_.data() + s * stride_;
            std::size_t vmin = 0;
            for (std::size_t k = 1; k < rows; ++k)
                if (pred[k] < pred[vmin])
                    vmin = k;
            base = std::max(pred[vmin], floor_[s]);
            chosen_pred_w_[s] = pred[vmin];
        } else {
            const double share =
                priority_total_ > 0.0
                    ? b * priority_[s] / priority_total_
                    : b / static_cast<double>(n_);
            base = std::max(floor_[s], share);
            if (priority_[s] == 0.0)
                base = std::max(floor_[s], 0.0);
            chosen_pred_w_[s] = base;
        }
        alloc_w_[s] = base;
        base_w_[s] = base;
        sum_base += base;
        if (finiteBudget(tier_budget_w_[tier_[s]]))
            tier_rem_w_[tier_[s]] -= base;
    }

    double rem = b - sum_base;
    // Tolerance: blind priority shares sum to the budget by
    // construction, and FP summation can land an ulp above it — that
    // is not an infeasible interval.
    if (rem < -(b * 1e-12 + 1e-9)) {
        // Floors/blind shares alone exceed the budget: scale every
        // allocation proportionally so the contract still holds.
        ++infeasible_intervals_;
        const double scale = sum_base > 0.0 ? b / sum_base : 0.0;
        double pred_sum = 0.0;
        for (std::size_t s = 0; s < n_; ++s) {
            const double cap = alloc_w_[s] * scale;
            caps_[s] = cap;
            prev_cap_[s] = cap;
            pred_sum += std::min(chosen_pred_w_[s], cap);
        }
        headroom_last_ = b - pred_sum;
        return;
    }
    for (std::size_t t = 0; t < n_tiers; ++t)
        tier_rem_w_[t] = std::max(0.0, tier_rem_w_[t]);

    // Build every sighted lane's upper concave hull over its
    // (power, throughput) points and emit the hull steps into one
    // global table. Within a lane, marginal throughput per watt is
    // non-increasing along the hull, so a single globally sorted
    // greedy sweep with freeze-on-skip is optimal for the relaxation.
    std::size_t n_steps = 0;
    for (std::size_t s = 0; s < n_; ++s) {
        if (!sighted_[s])
            continue;
        const std::size_t rows = n_rows_[s];
        const double *pred = pred_w_.data() + s * stride_;
        const double *ips = ips_.data() + s * stride_;
        // Rows by ascending power (ties to the lower VF index); an
        // insertion sort over <= stride_ entries, deterministic.
        for (std::size_t k = 0; k < rows; ++k) {
            std::size_t j = k;
            while (j > 0 && pred[row_order_[j - 1]] > pred[k]) {
                row_order_[j] = row_order_[j - 1];
                --j;
            }
            row_order_[j] = k;
        }
        // Upper hull from the min-power point upward: skip dominated
        // points, pop while the new slope would not decrease.
        std::size_t hn = 0;
        for (std::size_t k = 0; k < rows; ++k) {
            const std::size_t r = row_order_[k];
            const double p = pred[r];
            const double i = ips[r];
            if (hn > 0 &&
                (p <= hull_p_[hn - 1] || i <= hull_i_[hn - 1]))
                continue;
            while (hn >= 2) {
                const double dp1 = hull_p_[hn - 1] - hull_p_[hn - 2];
                const double di1 = hull_i_[hn - 1] - hull_i_[hn - 2];
                const double dp2 = p - hull_p_[hn - 1];
                const double di2 = i - hull_i_[hn - 1];
                // Keep the previous point only while its slope is
                // strictly steeper than the candidate's.
                if (di1 * dp2 > di2 * dp1)
                    break;
                --hn;
            }
            hull_p_[hn] = p;
            hull_i_[hn] = i;
            ++hn;
        }
        for (std::size_t h = 1; h < hn; ++h) {
            const double dp = hull_p_[h] - hull_p_[h - 1];
            const double di = hull_i_[h] - hull_i_[h - 1];
            step_dp_[n_steps] = dp;
            step_score_[n_steps] =
                dp > 0.0 ? priority_[s] * di / dp : 0.0;
            step_sess_[n_steps] = static_cast<std::uint32_t>(s);
            order_[n_steps] = static_cast<std::uint32_t>(n_steps);
            ++n_steps;
        }
    }

    // Steps were appended lane by lane, so index order is (session,
    // hull position) lexicographic; sorting by (score desc, index asc)
    // therefore keeps each lane's hull order among ties, and the
    // whole ordering is a pure function of the gathered table.
    // rt-escape: std::sort over a raw index array — opaque to the
    // effect analysis through the library template, but introsort is
    // in-place and allocation-free for PODs; RTSan keeps checking it.
    PPEP_RT_OPAQUE_BEGIN
    std::sort(order_.begin(),
              order_.begin() + static_cast<std::ptrdiff_t>(n_steps),
              [this](std::uint32_t a, std::uint32_t b2) {
                  if (step_score_[a] != step_score_[b2])
                      return step_score_[a] > step_score_[b2];
                  return a < b2;
              });
    PPEP_RT_OPAQUE_END

    // The sweep: grant hull steps in score order while both the global
    // remainder and the lane's tier remainder can pay for them. A lane
    // whose step is skipped freezes — granting a later (cheaper-rate)
    // step without its predecessor would leave the hull.
    for (std::size_t k = 0; k < n_steps; ++k) {
        const std::uint32_t idx = order_[k];
        const std::size_t s = step_sess_[idx];
        if (frozen_[s])
            continue;
        const double dp = step_dp_[idx];
        const std::size_t t = tier_[s];
        if (dp <= rem && dp <= tier_rem_w_[t]) {
            rem -= dp;
            tier_rem_w_[t] -= dp;
            alloc_w_[s] += dp;
            chosen_pred_w_[s] += dp;
        } else {
            frozen_[s] = 1;
        }
    }

    // Leftover headroom: split by priority among sighted lanes within
    // tier limits. Accumulator clamping keeps the grants numerically
    // under both the global remainder and each tier's.
    if (rem > 1e-12) {
        for (std::size_t t = 0; t < n_tiers; ++t)
            tier_prio_[t] = 0.0;
        double prio_sighted = 0.0;
        for (std::size_t s = 0; s < n_; ++s) {
            if (!sighted_[s])
                continue;
            tier_prio_[tier_[s]] += priority_[s];
            prio_sighted += priority_[s];
        }
        if (prio_sighted > 0.0) {
            double global_acc = rem;
            for (std::size_t t = 0; t < n_tiers; ++t) {
                const double want =
                    rem * tier_prio_[t] / prio_sighted;
                const double give = std::min(
                    {tier_rem_w_[t], want, global_acc});
                tier_give_w_[t] = std::max(0.0, give);
                global_acc -= tier_give_w_[t];
            }
            for (std::size_t t = 0; t < n_tiers; ++t)
                tier_rem_w_[t] = tier_give_w_[t];
            for (std::size_t s = 0; s < n_; ++s) {
                if (!sighted_[s] || priority_[s] <= 0.0)
                    continue;
                const std::size_t t = tier_[s];
                const double want = tier_give_w_[t] * priority_[s] /
                                    tier_prio_[t];
                const double d = std::min(want, tier_rem_w_[t]);
                tier_rem_w_[t] -= d;
                alloc_w_[s] += d;
            }
        }
    }

    // Hysteresis: a raise smaller than the threshold keeps the old
    // (smaller) cap, so near-balanced allocations don't thrash;
    // lowering always applies, so the budget sum is preserved.
    double pred_sum = 0.0;
    for (std::size_t s = 0; s < n_; ++s) {
        double cap = alloc_w_[s];
        if (cap > prev_cap_[s] && cap - prev_cap_[s] < kHysteresisW)
            cap = prev_cap_[s];
        caps_[s] = cap;
        prev_cap_[s] = cap;
        pred_sum += std::min(chosen_pred_w_[s], cap);
    }
    headroom_last_ = b - pred_sum;
}

// ---------------------------------------------------------------------------
// IterativeFleetArbiter: the reactive baseline.
// ---------------------------------------------------------------------------

void
IterativeFleetArbiter::decideImpl(std::size_t /*interval*/,
                                  double next_budget_w) PPEP_NONBLOCKING
{
    // Watts stepped per interval, and the slack measured power must
    // leave before caps step back up.
    constexpr double kStepW = 2.0;
    constexpr double kRaiseMarginW = 8.0;
    const double b = next_budget_w;
    if (!finiteBudget(b)) {
        for (std::size_t s = 0; s < n_; ++s)
            caps_[s] = kInf;
        headroom_last_ = kInf;
        initialised_ = false;
        return;
    }
    if (!initialised_) {
        for (std::size_t s = 0; s < n_; ++s) {
            const double share =
                priority_total_ > 0.0
                    ? b * priority_[s] / priority_total_
                    : b / static_cast<double>(n_);
            caps_[s] = std::max(floor_[s], share);
        }
        initialised_ = true;
    }
    double sum_measured = 0.0;
    for (std::size_t s = 0; s < n_; ++s)
        sum_measured += measured_[s];
    if (sum_measured > b) {
        // Over budget: every cap steps down by one fixed watt
        // increment — the fleet-scale analogue of the per-node
        // IterativeCappingGovernor's one-VF-state-per-interval search
        // the paper contrasts against.
        for (std::size_t s = 0; s < n_; ++s)
            caps_[s] = std::max(floor_[s], caps_[s] - kStepW);
    } else if (sum_measured < b - kRaiseMarginW) {
        double cap_sum = 0.0;
        for (std::size_t s = 0; s < n_; ++s)
            cap_sum += caps_[s];
        for (std::size_t s = 0; s < n_; ++s) {
            if (cap_sum + kStepW > b)
                break;
            caps_[s] += kStepW;
            cap_sum += kStepW;
        }
    }
    headroom_last_ = b - sum_measured;
}

std::unique_ptr<FleetArbiter>
makeArbiter(const ArbiterSpec &spec,
            const std::vector<FleetArbiter::SessionSetup> &sessions)
{
    std::unique_ptr<FleetArbiter> arb;
    if (spec.iterative)
        arb = std::make_unique<IterativeFleetArbiter>();
    else
        arb = std::make_unique<BudgetArbiter>();
    arb->configure(spec, sessions);
    return arb;
}

} // namespace ppep::runtime
