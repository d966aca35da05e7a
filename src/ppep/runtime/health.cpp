#include "ppep/runtime/health.hpp"

#include <cmath>

namespace ppep::runtime {

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
            kEwmaAlpha * err + (1.0 - kEwmaAlpha) * divergence_ewma_;
    }

    const std::size_t faults = health.faultEvents();
    const bool clean = faults == 0 &&
                       divergence_ewma_ <= kCleanDivergenceW;
    clean_streak_ = clean ? clean_streak_ + 1 : 0;

    if (!degraded_) {
        if (faults >= kDemoteFaultEvents ||
            divergence_ewma_ > kDemoteDivergenceW) {
            degraded_ = true;
            clean_streak_ = 0;
            ++demotions_;
        }
    } else if (clean_streak_ >= kRepromoteClean) {
        degraded_ = false;
        clean_streak_ = 0;
        ++repromotions_;
    }
}

} // namespace ppep::runtime
