#include "ppep/runtime/health.hpp"

#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::runtime {

HealthMonitor::HealthMonitor(HealthPolicy policy) : policy_(policy)
{
    PPEP_ASSERT(policy_.ewma_alpha > 0.0 && policy_.ewma_alpha <= 1.0,
                "ewma_alpha in (0, 1]");
    PPEP_ASSERT(policy_.clean_divergence_w <=
                    policy_.demote_divergence_w,
                "clean threshold must not exceed demote threshold");
    PPEP_ASSERT(policy_.repromote_clean >= 1,
                "re-promotion needs at least one clean interval");
}

void
HealthMonitor::observe(const trace::SampleHealth &health,
                       double predicted_w,
                       double measured_w) PPEP_NONBLOCKING
{
    ++intervals_;
    // Divergence only updates when the governor actually predicted —
    // in degraded mode (or under a non-predicting policy) the EWMA
    // holds its last value rather than decaying on missing data.
    if (std::isfinite(predicted_w) && std::isfinite(measured_w)) {
        const double err = std::abs(predicted_w - measured_w);
        divergence_ewma_ =
            policy_.ewma_alpha * err +
            (1.0 - policy_.ewma_alpha) * divergence_ewma_;
    }

    const std::size_t faults = health.faultEvents();
    const bool clean = faults == 0 &&
                       divergence_ewma_ <= policy_.clean_divergence_w;
    clean_streak_ = clean ? clean_streak_ + 1 : 0;

    if (!degraded_) {
        if (faults >= policy_.demote_fault_events ||
            divergence_ewma_ > policy_.demote_divergence_w) {
            degraded_ = true;
            clean_streak_ = 0;
            ++demotions_;
        }
    } else if (clean_streak_ >= policy_.repromote_clean) {
        degraded_ = false;
        clean_streak_ = 0;
        ++repromotions_;
    }
}

} // namespace ppep::runtime
