/**
 * @file
 * Drift-triggered online recalibration with a between-decisions model
 * swap.
 *
 * ModelStore makes training a one-time offline effort, but silicon
 * ages, sensors decalibrate, and workloads shift: the HealthMonitor's
 * divergence EWMA then climbs until the DegradedModeGovernor parks the
 * session on the safe policy — detection without recovery. The
 * Recalibrator closes the loop:
 *
 *  1. every governed interval it snapshots one bounded ring row —
 *     the Eq. 3 design vector (per-core event rates with the per-core
 *     voltage scale folded in) and the measured dynamic power target
 *     (sensor minus the incumbent idle estimate) — allocation-free;
 *  2. when the divergence EWMA crosses the recalibrate threshold
 *     (below the demote threshold: heal before you have to degrade),
 *     it refits the nine dynamic-power weights on the ring at once,
 *     with the existing math/least_squares NNLS + math/kfold machinery,
 *     and gates acceptance: the candidate's k-fold error must beat the
 *     incumbent's error on the same ring by a configured margin, and
 *     the weights and predictions must pass plausibility bounds;
 *  3. the verdict takes effect in the same call: an accepted
 *     candidate is an immutable TrainedModels + Ppep + rebuilt
 *     (pre-warmed) governor that the session re-points its
 *     DegradedModeGovernor at before the next decision, so the warm
 *     decide path never allocates.
 *
 * Everything runs on the governing thread, inside Session::observe —
 * the telemetry hand-off, after the sinks have read the interval and
 * outside the PPEP_NONBLOCKING decide region. A refit costs well under
 * a millisecond (DESIGN.md §15), next to the paper's 200 ms interval.
 * A refit triggered by interval N governs from interval N + 1 on, at
 * any fleet thread count. Every refit — accepted or rejected — is
 * recorded in a lineage the ModelStore can persist.
 */

#ifndef PPEP_RUNTIME_RECALIBRATE_HPP
#define PPEP_RUNTIME_RECALIBRATE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/health.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/events.hpp"
#include "ppep/trace/interval.hpp"

namespace ppep::runtime {

/** When to refit, how much history to use, and what to accept. */
struct RecalibrationPolicy
{
    /** Trigger a refit when the divergence EWMA exceeds this, watts.
     *  The default sits below HealthMonitor::kDemoteDivergenceW so
     *  healing starts before the session has to degrade. */
    double recal_divergence_w = 10.0;

    /** Ring capacity: intervals of history a refit can see. */
    std::size_t ring_capacity = 256;

    /** Minimum clean rows in the ring before a refit may trigger. */
    std::size_t min_ring_fill = 64;

    /** Intervals to wait after a trigger before the next one may fire
     *  (lets the EWMA re-converge first). */
    std::size_t cooldown_intervals = 128;

    /** Folds for the candidate's cross-validated error. */
    std::size_t kfold_k = 4;

    /** Required relative improvement: candidate cv MAE must be at or
     *  under incumbent ring MAE * (1 - min_improvement). */
    double min_improvement = 0.1;

    /** Plausibility: per-event energy weights above this (watts per
     *  event/second; physical values are ~1e-8) are rejected. */
    double max_weight = 1e-3;

    /** Plausibility: a candidate whose ring predictions exceed this
     *  (watts) is rejected. */
    double max_predicted_w = 1e4;

    /** Adopted-generation cap; 0 = unlimited. */
    std::size_t max_generations = 0;
};

static_assert(RecalibrationPolicy{}.recal_divergence_w <
                  HealthMonitor::kDemoteDivergenceW,
              "the default refit trigger must fire before demotion");

/**
 * Rebuilds the session's policy against a recalibrated model set.
 * Defined here (not in terms of session.hpp's GovernorFactory) so the
 * two headers stay acyclic; Session wraps its factory into one of
 * these.
 */
using GovernorRebuilder = std::function<std::unique_ptr<governor::Governor>(
    const sim::ChipConfig &, const model::TrainedModels &,
    const model::Ppep &)>;

/** One refit attempt, accepted or not — the audit trail. */
struct RefitRecord
{
    std::uint64_t generation = 0;
    std::uint64_t parent_digest = 0;
    std::uint64_t digest = 0;
    bool accepted = false;
    /** Static-literal verdict ("adopted", "worse-than-incumbent",
     *  "implausible-weights", "implausible-predictions"). */
    const char *verdict = "";
    std::uint64_t trigger_interval = 0;
    double trigger_ewma_w = 0.0;
    double cv_mae_w = 0.0;
    double incumbent_mae_w = 0.0;
    std::size_t ring_rows = 0;
};

/** Drift-triggered refit + between-decisions model swap. */
class Recalibrator
{
  public:
    /** An immutable published model generation. */
    struct ModelVersion
    {
        /** The refit that produced this generation. */
        RefitRecord record;
        model::TrainedModels models;
        std::unique_ptr<model::Ppep> ppep;
        std::unique_ptr<governor::Governor> gov;
    };

    /**
     * @param cfg           the session's chip description (copied).
     * @param gen0          the models the session started with (copied;
     *                      idle model, alpha, and PG decomposition are
     *                      carried through every generation unchanged).
     * @param rebuild       builds a fresh policy over a refit model set.
     * @param training_seed seeds the k-fold shuffles deterministically.
     */
    Recalibrator(const sim::ChipConfig &cfg,
                 const model::TrainedModels &gen0,
                 GovernorRebuilder rebuild, std::uint64_t training_seed,
                 RecalibrationPolicy policy = {});

    Recalibrator(const Recalibrator &) = delete;
    Recalibrator &operator=(const Recalibrator &) = delete;

    /**
     * Record one completed interval into the ring. Allocation-free —
     * the ring is preallocated and rows are plain arrays. Rows from
     * unclean intervals (@p clean false: sampler interventions fired)
     * or with a non-finite sensor reading are skipped; a refit must
     * not learn from data the sampler itself distrusts.
     */
    void observeInterval(const trace::IntervalRecord &rec, bool clean);

    /**
     * Refit if the divergence warrants one — EWMA above the threshold,
     * ring sufficiently full, cooldown expired, generation cap not
     * reached — and resolve it at once. The refit runs on the ring as
     * it stands; @p rec is the interval that just completed (it
     * pre-warms the rebuilt governor). Returns the newly adopted
     * version (the caller re-points its governor and resets its health
     * EWMA), or nullptr when nothing triggered or the candidate was
     * rejected. An adoption destroys the version it retires, so the
     * caller must be done with the outgoing governor first. The fast
     * path is a few comparisons.
     */
    const ModelVersion *maybeRefit(const trace::IntervalRecord &rec,
                                   double divergence_ewma_w,
                                   std::uint64_t interval_index);

    /** The currently adopted version; nullptr while on generation 0. */
    const ModelVersion *current() const { return adopted_.get(); }

    /** Adopted generation count (0 = still the offline models). */
    std::uint64_t generation() const
    {
        return adopted_ ? adopted_->record.generation : 0;
    }

    /** Refits run so far. */
    std::uint64_t triggers() const { return accepted_ + rejected_; }

    /** Refits adopted so far. */
    std::uint64_t accepted() const { return accepted_; }

    /** Refits rejected by the acceptance gate so far. */
    std::uint64_t rejected() const { return rejected_; }

    /** Clean rows currently in the ring. */
    std::size_t ringFill() const { return ring_fill_; }

    /** Every refit attempt, in trigger order. */
    const std::vector<RefitRecord> &lineage() const { return lineage_; }

    /** The policy in force. */
    const RecalibrationPolicy &policy() const { return policy_; }

  private:
    /** One ring row: Eq. 3 design vector + measured dynamic power. */
    struct RingRow
    {
        std::array<double, sim::kNumPowerEvents> design{};
        double target_w = 0.0;
    };

    /** Refit on the ring's rows in index order against the incumbent
     *  generation and fill in @p record's verdict; returns the
     *  candidate, pre-warmed on @p warm_rec, or nullptr when the
     *  acceptance gate rejects it. */
    std::unique_ptr<ModelVersion>
    refit(const trace::IntervalRecord &warm_rec,
          RefitRecord &record) const;

    const sim::ChipConfig cfg_;
    const model::TrainedModels gen0_;
    const GovernorRebuilder rebuild_;
    const std::uint64_t training_seed_;
    const RecalibrationPolicy policy_;

    std::vector<RingRow> ring_;
    std::size_t ring_head_ = 0;
    std::size_t ring_fill_ = 0;
    std::unique_ptr<ModelVersion> adopted_;
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t cooldown_until_ = 0;
    std::vector<RefitRecord> lineage_;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_RECALIBRATE_HPP
