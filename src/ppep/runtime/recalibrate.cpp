#include "ppep/runtime/recalibrate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ppep/math/kfold.hpp"
#include "ppep/math/least_squares.hpp"
#include "ppep/math/matrix.hpp"
#include "ppep/model/dynamic_power_model.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/util/rng.hpp"

namespace ppep::runtime {

namespace {

/** Content digest of one generation's dynamic weights. */
std::uint64_t
weightsDigest(const std::array<double, sim::kNumPowerEvents> &w)
{
    return util::fnv1a(w.data(), sizeof(double) * w.size());
}

/** design-row . weights, the shared prediction kernel of the gate. */
double
dot(const math::Matrix &design, std::size_t row,
    const std::vector<double> &w)
{
    double acc = 0.0;
    for (std::size_t j = 0; j < w.size(); ++j)
        acc += design(row, j) * w[j];
    return acc;
}

} // namespace

Recalibrator::Recalibrator(const sim::ChipConfig &cfg,
                           const model::TrainedModels &gen0,
                           GovernorRebuilder rebuild,
                           std::uint64_t training_seed,
                           RecalibrationPolicy policy)
    : cfg_(cfg), gen0_(gen0), rebuild_(std::move(rebuild)),
      training_seed_(training_seed), policy_(policy)
{
    PPEP_ASSERT(policy_.recal_divergence_w > 0.0,
                "recalibrate threshold must be positive");
    PPEP_ASSERT(policy_.kfold_k >= 2, "k-fold needs k >= 2");
    PPEP_ASSERT(policy_.min_ring_fill >= policy_.kfold_k,
                "min ring fill must cover the folds");
    PPEP_ASSERT(policy_.ring_capacity >= policy_.min_ring_fill,
                "ring capacity below its own fill threshold");
    PPEP_ASSERT(policy_.min_improvement >= 0.0 &&
                    policy_.min_improvement < 1.0,
                "min_improvement in [0, 1)");
    PPEP_ASSERT(gen0_.idle.trained() && gen0_.dynamic.trained(),
                "recalibration starts from trained models");
    PPEP_ASSERT(rebuild_ != nullptr,
                "recalibration needs a governor rebuilder");
    ring_.resize(policy_.ring_capacity);
}

void
Recalibrator::observeInterval(const trace::IntervalRecord &rec,
                              bool clean)
{
    // Only data the sampler vouches for may teach the next model; a
    // fault-storm interval would poison the very refit meant to cure
    // divergence.
    if (!clean || !std::isfinite(rec.sensor_power_w) ||
        !std::isfinite(rec.diode_temp_k) || rec.duration_s <= 0.0)
        return;

    RingRow &row = ring_[ring_head_];
    row.design.fill(0.0);
    row.target_w = 0.0;

    // Eq. 3 design vector with the per-core voltage scale folded into
    // the seven core-event columns: the fit then stays one linear
    // regression even though online rows span arbitrary per-CU VF
    // states, unlike offline training's fixed top-VF protocol.
    const std::size_t table_top = cfg_.vf_table.size() - 1;
    double volt_sum = 0.0;
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const std::size_t vf =
            std::min(rec.cu_vf[cu], table_top);
        const double voltage = cfg_.vf_table.state(vf).voltage;
        const double vscale = gen0_.dynamic.voltageScale(voltage);
        const auto rates =
            model::powerEventRates(rec.pmc[c], rec.duration_s);
        for (std::size_t i = 0; i < sim::kNumCorePowerEvents; ++i)
            row.design[i] += vscale * rates[i];
        for (std::size_t i = sim::kNumCorePowerEvents;
             i < sim::kNumPowerEvents; ++i)
            row.design[i] += rates[i];
    }
    for (std::size_t cu = 0; cu < rec.cu_vf.size(); ++cu)
        volt_sum +=
            cfg_.vf_table.state(std::min(rec.cu_vf[cu], table_top))
                .voltage;
    const double mean_v =
        rec.cu_vf.empty()
            ? cfg_.vf_table.state(table_top).voltage
            : volt_sum / static_cast<double>(rec.cu_vf.size());

    // Target: measured dynamic power, priced against the generation-0
    // idle model (idle/alpha are carried through generations, so the
    // target definition never shifts under the fit).
    row.target_w = rec.sensor_power_w -
                   gen0_.idle.predict(mean_v, rec.diode_temp_k);

    ring_head_ = (ring_head_ + 1) % ring_.size();
    if (ring_fill_ < ring_.size())
        ++ring_fill_;
}

const Recalibrator::ModelVersion *
Recalibrator::maybeRefit(const trace::IntervalRecord &rec,
                         double divergence_ewma_w,
                         std::uint64_t interval_index)
{
    if (!(divergence_ewma_w > policy_.recal_divergence_w))
        return nullptr;
    if (ring_fill_ < policy_.min_ring_fill)
        return nullptr;
    if (interval_index < cooldown_until_)
        return nullptr;
    if (policy_.max_generations != 0 &&
        generation() >= policy_.max_generations)
        return nullptr;

    cooldown_until_ = interval_index + policy_.cooldown_intervals;
    RefitRecord record;
    record.trigger_interval = interval_index;
    record.trigger_ewma_w = divergence_ewma_w;
    auto candidate = refit(rec, record);
    lineage_.push_back(record);
    if (!candidate) {
        ++rejected_;
        return nullptr;
    }
    adopted_ = std::move(candidate);
    ++accepted_;
    return adopted_.get();
}

std::unique_ptr<Recalibrator::ModelVersion>
Recalibrator::refit(const trace::IntervalRecord &warm_rec,
                    RefitRecord &record) const
{
    const std::size_t n = ring_fill_;
    const std::size_t p = sim::kNumPowerEvents;

    math::Matrix design(n, p);
    std::vector<double> target(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < p; ++j)
            design(i, j) = ring_[i].design[j];
        target[i] = ring_[i].target_w;
    }

    const std::uint64_t generation = this->generation() + 1;
    const auto &incumbent_weights = adopted_
                                        ? adopted_->models.dynamic.weights()
                                        : gen0_.dynamic.weights();
    record.generation = generation;
    record.parent_digest = adopted_ ? adopted_->record.digest
                                    : weightsDigest(incumbent_weights);
    record.ring_rows = n;

    // Incumbent error on the very same ring: apples to apples, since
    // both models share the voltage-scale and idle terms.
    const std::vector<double> incumbent(incumbent_weights.begin(),
                                        incumbent_weights.end());
    double inc_abs = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        inc_abs += std::abs(dot(design, i, incumbent) - target[i]);
    const double inc_mae = inc_abs / static_cast<double>(n);
    record.incumbent_mae_w = inc_mae;

    // Cross-validated candidate error: per-fold NNLS on the training
    // rows, scored on the held-out rows. The shuffle is seeded from
    // (training seed, generation), so identical runs make identical
    // accept/reject calls at any fleet thread count.
    const std::size_t k = std::min(policy_.kfold_k, n);
    util::Rng rng(training_seed_ ^
                  (0x9E3779B97F4A7C15ULL * generation));
    const auto folds = math::makeFolds(n, k, rng);
    double cv_abs = 0.0;
    std::size_t cv_count = 0;
    for (const auto &fold : folds) {
        math::Matrix train(fold.train.size(), p);
        std::vector<double> train_y(fold.train.size());
        for (std::size_t r = 0; r < fold.train.size(); ++r) {
            for (std::size_t j = 0; j < p; ++j)
                train(r, j) = design(fold.train[r], j);
            train_y[r] = target[fold.train[r]];
        }
        const auto fit =
            math::fitNonNegativeLeastSquares(train, train_y);
        for (const std::size_t t : fold.test) {
            cv_abs +=
                std::abs(dot(design, t, fit.coefficients) - target[t]);
            ++cv_count;
        }
    }
    const double cv_mae =
        cv_abs / static_cast<double>(cv_count ? cv_count : 1);
    record.cv_mae_w = cv_mae;

    // The published weights come from the full-ring fit.
    const auto full = math::fitNonNegativeLeastSquares(design, target);
    std::array<double, sim::kNumPowerEvents> weights{};
    for (std::size_t j = 0; j < p; ++j)
        weights[j] = full.coefficients[j];
    record.digest = weightsDigest(weights);

    // Acceptance gate 1: beat the incumbent on its own ring.
    if (!(cv_mae <= inc_mae * (1.0 - policy_.min_improvement))) {
        record.verdict = "worse-than-incumbent";
        return nullptr;
    }
    // Gate 2: weights must stay physically plausible energies.
    for (const double w : weights) {
        if (!std::isfinite(w) || w > policy_.max_weight) {
            record.verdict = "implausible-weights";
            return nullptr;
        }
    }
    // Gate 3: the fit must not predict absurd power anywhere on the
    // ring it was trained on.
    for (std::size_t i = 0; i < n; ++i) {
        const double pred = dot(design, i, full.coefficients);
        if (!std::isfinite(pred) ||
            std::abs(pred) > policy_.max_predicted_w) {
            record.verdict = "implausible-predictions";
            return nullptr;
        }
    }

    // Build the immutable next generation: gen-0 idle/alpha/PG with
    // the refit dynamic weights, a fresh Ppep plan, and a rebuilt
    // governor — pre-warmed here so the first decision after the swap
    // allocates nothing.
    auto ver = std::make_unique<ModelVersion>();
    ver->models = gen0_;
    ver->models.dynamic = model::DynamicPowerModel::fromWeights(
        weights, gen0_.dynamic.trainingVoltage(),
        gen0_.dynamic.alpha());
    ver->models.chip = model::ChipPowerModel(
        ver->models.idle, ver->models.dynamic, cfg_.vf_table);
    ver->ppep = std::make_unique<model::Ppep>(cfg_, ver->models.chip,
                                              ver->models.pg);
    ver->gov = rebuild_(cfg_, ver->models, *ver->ppep);
    PPEP_ASSERT(ver->gov != nullptr,
                "governor rebuilder returned null");
    std::vector<std::size_t> scratch;
    const double no_cap = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
        ver->gov->decideInto(warm_rec, no_cap, scratch);
        (void)ver->gov->decideNb();
    }

    record.accepted = true;
    record.verdict = "adopted";
    ver->record = record;
    return ver;
}

} // namespace ppep::runtime
