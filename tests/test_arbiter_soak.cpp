/**
 * @file
 * Arbitration soak: a heterogeneous, fault-injected fleet governed
 * under a time-varying global budget for 10k intervals, with an
 * ArbiterObserver re-checking the two load-bearing invariants on every
 * single interval:
 *
 *   - the installed caps never sum above the budget they target
 *     (beyond FP tolerance), across budget drops, recoveries, tier
 *     limits, and drifting measured power;
 *   - the violation counter latches exactly when measured fleet power
 *     overshoots the governing budget — ground truth recomputed
 *     independently from the observer's own view.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "ppep/runtime/arbiter.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
using runtime::ArbiterSpec;
using runtime::Fleet;
using runtime::FleetSessionSpec;
using runtime::FleetSpec;
using ppep::governor::CapSchedule;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

TEST(ArbiterSoak, CapsHoldTheBudgetForTenThousandIntervals)
{
    constexpr std::size_t kIntervals = 10000;

    FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.store.emplace(test::tempPath("arbsoak_cache"));
    spec.warmup = 1;
    spec.intervals = kIntervals;

    // Six sessions over two platforms; half of them drift under a
    // fault plan, so measured power decouples from the (stale) model
    // predictions the arbiter allocates from — exactly the regime
    // where a buggy arbiter would overshoot or latch spuriously.
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    sim::FaultPlan plan;
    plan.power_drift_bias = 2e-4;
    plan.drift_clamp = 0.3;
    for (std::size_t i = 0; i < 6; ++i) {
        FleetSessionSpec ss;
        ss.seed = 41 + i;
        ss.one_per_cu = {programs[i % programs.size()]};
        if (i >= 4) {
            ss.cfg = sim::phenomIIConfig();
        } else {
            ss.pg = (i % 2) == 0;
        }
        if (i % 2 == 1)
            ss.faults = plan;
        ss.priority = 1.0 + static_cast<double>(i % 3) * 0.5;
        ss.slo_floor_w = 4.0;
        spec.sessions.push_back(std::move(ss));
    }

    ArbiterSpec a;
    // Drops and recoveries across the whole run, all binding for this
    // fleet's ~150-250 W draw.
    // The tight segments sit below the fleet's ~110 W desired draw, so
    // caps genuinely bind there and the drifted sessions' overshoot
    // shows up in the fleet total instead of vanishing into the slack
    // the governors leave under their caps.
    a.budget = CapSchedule({{0, 260.0},
                            {2000, 85.0},
                            {4500, 240.0},
                            {7000, 80.0},
                            {9000, 210.0}});
    a.tiers = {{"rack0", 150.0}, {"rack1", 150.0}};

    std::size_t calls = 0;
    std::size_t true_violations = 0;
    std::size_t cap_sum_failures = 0;
    a.observer = [&](const runtime::ArbiterIntervalView &v) {
        ++calls;
        double cap_sum = 0.0;
        for (std::size_t s = 0; s < v.n_sessions; ++s)
            cap_sum += v.caps[s];
        if (cap_sum > v.next_budget_w * (1.0 + 1e-9) + 1e-6)
            ++cap_sum_failures;
        double measured = 0.0;
        for (std::size_t s = 0; s < v.n_sessions; ++s)
            measured += v.measured[s];
        // Ground truth for the latch: strictly-measured overshoot of
        // the budget that governed the just-closed interval.
        const bool overshoot = measured > v.budget_w;
        if (overshoot)
            ++true_violations;
        EXPECT_EQ(v.violation, overshoot)
            << "interval " << v.interval;
    };
    spec.arbiter = std::move(a);

    Fleet fleet(std::move(spec));
    const auto res = fleet.run(4);
    ASSERT_EQ(res.failed, 0u);
    ASSERT_TRUE(res.arbiter.active);

    EXPECT_EQ(calls, kIntervals);
    EXPECT_EQ(cap_sum_failures, 0u);
    EXPECT_EQ(res.arbiter.cap_sum_violations, 0u);
    // The report's counter is exactly the independently recomputed
    // ground truth: it latched on genuine overshoot and nothing else.
    // (With stale models under positive power drift, some overshoot is
    // genuine and expected — the counter must report it, not hide it.)
    EXPECT_EQ(res.arbiter.violation_intervals, true_violations);
    EXPECT_GT(true_violations, 0u);
    EXPECT_LT(true_violations, kIntervals);
    EXPECT_EQ(res.arbiter.intervals, kIntervals);
    EXPECT_EQ(res.arbiter.budget_drops, 2u);
    for (const auto &s : res.sessions) {
        EXPECT_TRUE(s.completed) << s.error;
        EXPECT_EQ(s.intervals, kIntervals);
    }
}

} // namespace
