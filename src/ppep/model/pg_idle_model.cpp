#include "ppep/model/pg_idle_model.hpp"

#include <algorithm>

#include "ppep/util/logging.hpp"

namespace ppep::model {

PgIdleModel
PgIdleModel::fromSweeps(const std::vector<PgSweepMeasurement> &sweeps,
                        std::size_t n_cus)
{
    PPEP_ASSERT(!sweeps.empty(), "no PG sweep measurements");
    PPEP_ASSERT(n_cus >= 1, "need at least one CU");

    std::size_t max_vf = 0;
    for (const auto &s : sweeps)
        max_vf = std::max(max_vf, s.vf_index);

    PgIdleModel model;
    model.n_cus_ = n_cus;
    model.components_.resize(max_vf + 1);

    for (const auto &s : sweeps) {
        PPEP_ASSERT(s.power_pg_off.size() == n_cus + 1 &&
                    s.power_pg_on.size() == n_cus + 1,
                    "sweep must cover 0..n_cus busy CUs");
        PgIdleComponents c;

        // Average the per-CU idle power over the k = 1..n_cus-1 gaps
        // (gap(k) = (n_cus - k) * Pidle(CU)); the k = n_cus point has no
        // gap and the k = 0 point includes the NB gate.
        double p_cu_sum = 0.0;
        std::size_t p_cu_n = 0;
        for (std::size_t k = 1; k < n_cus; ++k) {
            const double gap = s.power_pg_off[k] - s.power_pg_on[k];
            p_cu_sum += gap / static_cast<double>(n_cus - k);
            ++p_cu_n;
        }
        c.p_cu = p_cu_n ? std::max(0.0, p_cu_sum /
                                            static_cast<double>(p_cu_n))
                        : 0.0;

        // Fully idle: gap = n_cus * Pidle(CU) + Pidle(NB).
        const double idle_gap = s.power_pg_off[0] - s.power_pg_on[0];
        c.p_nb = std::max(0.0, idle_gap -
                                   static_cast<double>(n_cus) * c.p_cu);

        // Everything still drawn when fully gated is the base.
        c.p_base = std::max(0.0, s.power_pg_on[0]);

        model.components_[s.vf_index] = c;
    }
    model.cacheAverages();
    return model;
}

PgIdleModel
PgIdleModel::fromComponents(std::vector<PgIdleComponents> components,
                            std::size_t n_cus)
{
    PPEP_ASSERT(!components.empty(), "no components");
    PPEP_ASSERT(n_cus >= 1, "need at least one CU");
    PgIdleModel model;
    model.components_ = std::move(components);
    model.n_cus_ = n_cus;
    model.cacheAverages();
    return model;
}

void
PgIdleModel::cacheAverages()
{
    // Left-to-right sums in VF-index order; a serialization round trip
    // rebuilds the same components and so the same bits.
    double nb = 0.0;
    for (const auto &c : components_)
        nb += c.p_nb;
    p_nb_avg_ = nb / static_cast<double>(components_.size());
    double base = 0.0;
    for (const auto &c : components_)
        base += c.p_base;
    p_base_avg_ = base / static_cast<double>(components_.size());
}

const PgIdleComponents &
PgIdleModel::components(std::size_t vf_index) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(vf_index < components_.size(),
                "no components for VF index ", vf_index);
    return components_[vf_index];
}

double
PgIdleModel::pNbAvg() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(trained(), "PG idle model not trained");
    return p_nb_avg_;
}

double
PgIdleModel::pBaseAvg() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(trained(), "PG idle model not trained");
    return p_base_avg_;
}

double
PgIdleModel::chipIdleMixed(const std::vector<std::size_t> &cu_vf,
                           const std::vector<std::size_t> &busy_per_cu,
                           bool pg_enabled) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(cu_vf.size() == n_cus_ && busy_per_cu.size() == n_cus_,
                "per-CU vector size mismatch");
    double total = pBaseAvg();
    bool any_busy = false;
    for (std::size_t cu = 0; cu < n_cus_; ++cu) {
        const bool counts = busy_per_cu[cu] > 0 || !pg_enabled;
        if (counts)
            total += components(cu_vf[cu]).p_cu;
        any_busy = any_busy || busy_per_cu[cu] > 0;
    }
    if (any_busy || !pg_enabled)
        total += pNbAvg();
    return total;
}

} // namespace ppep::model
