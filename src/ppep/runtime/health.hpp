/**
 * @file
 * Fault accounting and model-health tracking for governed runs.
 *
 * The HealthMonitor folds two signals into a single degraded/healthy
 * verdict each interval:
 *
 *  - the Sampler's per-interval fault events (failed read-outs,
 *    rejected samples, substitutions, timing overruns), and
 *  - the divergence between the power the governor *predicted* for an
 *    interval and the power the sensor then *measured*, smoothed with
 *    an EWMA so a single glitch does not flip the verdict.
 *
 * A demotion latches: the system stays degraded until it has seen
 * kRepromoteClean consecutive clean intervals. runtime::Session hands
 * the verdict to the DegradedModeGovernor before every decision.
 */

#ifndef PPEP_RUNTIME_HEALTH_HPP
#define PPEP_RUNTIME_HEALTH_HPP

#include <cstddef>

#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::runtime {

/** Latching healthy/degraded state machine fed once per interval. */
class HealthMonitor
{
  public:
    /** EWMA smoothing factor for |predicted - measured| power. */
    static constexpr double kEwmaAlpha = 0.25;

    /** Demote when the divergence EWMA exceeds this, watts. */
    static constexpr double kDemoteDivergenceW = 15.0;

    /** Demote when one interval records at least this many fault
     *  events (Sampler interventions). */
    static constexpr std::size_t kDemoteFaultEvents = 3;

    /** Consecutive clean intervals required to re-promote. */
    static constexpr std::size_t kRepromoteClean = 5;

    /** An interval only counts as clean if the divergence EWMA is
     *  back under this, watts (hysteresis below the demote level). */
    static constexpr double kCleanDivergenceW = 8.0;

    static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0,
                  "EWMA alpha in (0, 1]");
    static_assert(kCleanDivergenceW <= kDemoteDivergenceW,
                  "clean threshold must not exceed demote threshold");
    static_assert(kRepromoteClean >= 1,
                  "re-promotion needs at least one clean interval");

    /**
     * Account one completed interval.
     *
     * @param health      the Sampler's record for the interval.
     * @param predicted_w chip power the governor predicted for this
     *                    interval when it decided the previous one;
     *                    NaN when no prediction was made (degraded
     *                    mode, non-predicting policy) — divergence
     *                    tracking is skipped for that interval.
     * @param measured_w  sensor power the interval actually measured.
     */
    void observe(const trace::SampleHealth &health, double predicted_w,
                 double measured_w) PPEP_NONBLOCKING;

    /** Current verdict. */
    bool degraded() const { return degraded_; }

    /** Smoothed |predicted - measured| power, watts. */
    double divergenceEwma() const { return divergence_ewma_; }

    /** Healthy→degraded transitions so far. */
    std::size_t demotions() const { return demotions_; }

    /** Degraded→healthy transitions so far. */
    std::size_t repromotions() const { return repromotions_; }

    /** Consecutive clean intervals ending at the latest observation. */
    std::size_t cleanStreak() const { return clean_streak_; }

    /** Intervals observed so far. */
    std::size_t intervalsObserved() const { return intervals_; }

    /**
     * A recalibrated model was just swapped in: the divergence history
     * was earned by the retired model, so the EWMA restarts from zero
     * and the clean streak with it. The degraded latch is untouched —
     * re-promotion still requires kRepromoteClean genuinely clean
     * intervals under the incoming model.
     */
    void noteModelSwap() PPEP_NONBLOCKING
    {
        divergence_ewma_ = 0.0;
        clean_streak_ = 0;
        ++model_swaps_;
    }

    /** Model swaps noted so far. */
    std::size_t modelSwaps() const { return model_swaps_; }

  private:
    bool degraded_ = false;
    double divergence_ewma_ = 0.0;
    std::size_t clean_streak_ = 0;
    std::size_t demotions_ = 0;
    std::size_t repromotions_ = 0;
    std::size_t intervals_ = 0;
    std::size_t model_swaps_ = 0;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_HEALTH_HPP
