#include "ppep/runtime/tenant.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::runtime {

TenantAttributor::TenantAttributor(const sim::ChipConfig &cfg,
                                   const model::DynamicPowerModel &dyn,
                                   const model::PgIdleModel &pg,
                                   std::vector<TenantSpec> specs)
    : cfg_(cfg), dyn_(dyn), pg_(pg), specs_(std::move(specs)),
      owner_(cfg.coreCount(), -1)
{
    PPEP_ASSERT(dyn_.trained(), "dynamic model not trained");
    if (!pg_.trained())
        PPEP_FATAL("tenant attribution needs a trained PG idle model; "
                   "platform '", cfg_.name,
                   "' has none (no power-gating sweep)");
    if (specs_.empty())
        PPEP_FATAL("tenant list must not be empty");

    for (std::size_t t = 0; t < specs_.size(); ++t) {
        const TenantSpec &spec = specs_[t];
        if (spec.name.empty())
            PPEP_FATAL("tenant ", t, " has an empty name");
        for (char ch : spec.name) {
            const bool ok =
                (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                (ch >= '0' && ch <= '9') || ch == '_' || ch == '-';
            // Names become CSV column headers and JSON object keys.
            if (!ok)
                PPEP_FATAL("tenant name '", spec.name,
                           "' may only use [A-Za-z0-9_-]");
        }
        for (std::size_t u = 0; u < t; ++u)
            if (specs_[u].name == spec.name)
                PPEP_FATAL("duplicate tenant name '", spec.name, "'");
        if (spec.cores.empty())
            PPEP_FATAL("tenant '", spec.name, "' owns no cores");
        for (std::size_t core : spec.cores) {
            if (core >= cfg_.coreCount())
                PPEP_FATAL("tenant '", spec.name, "' claims core ", core,
                           " but platform '", cfg_.name, "' has only ",
                           cfg_.coreCount(), " cores");
            if (owner_[core] >= 0)
                PPEP_FATAL("core ", core, " claimed by both tenant '",
                           specs_[static_cast<std::size_t>(owner_[core])]
                               .name,
                           "' and tenant '", spec.name, "'");
            owner_[core] = static_cast<std::ptrdiff_t>(t);
        }
        for (const TenantJob &job : spec.jobs) {
            if (job.core >= cfg_.coreCount() ||
                owner_[job.core] != static_cast<std::ptrdiff_t>(t))
                PPEP_FATAL("tenant '", spec.name, "' pins job '",
                           job.program, "' to core ", job.core,
                           " which it does not own");
        }
    }
}

TenantAttribution
TenantAttributor::makeAttribution() const
{
    TenantAttribution out;
    out.dynamic_w.resize(specs_.size(), 0.0);
    out.idle_w.resize(specs_.size(), 0.0);
    out.total_w.resize(specs_.size(), 0.0);
    out.busy_per_cu.resize(cfg_.n_cus, 0);
    return out;
}

void
TenantAttributor::attributeInto(const trace::IntervalRecord &rec,
                                bool pg_enabled,
                                TenantAttribution &out) const
    PPEP_NONBLOCKING
{
    PPEP_ASSERT(rec.pmc.size() == cfg_.coreCount(),
                "record core count mismatch");
    PPEP_ASSERT(rec.cu_vf.size() == cfg_.n_cus,
                "record CU context mismatch");
    PPEP_ASSERT(out.dynamic_w.size() == specs_.size() &&
                    out.busy_per_cu.size() == cfg_.n_cus,
                "attribution block not from makeAttribution()");

    for (std::size_t t = 0; t < specs_.size(); ++t) {
        out.dynamic_w[t] = 0.0;
        out.idle_w[t] = 0.0;
        out.total_w[t] = 0.0;
    }
    out.unattributed_w = 0.0;

    // Busy topology: a core is busy when it retired instructions.
    std::size_t busy_total = 0;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
        out.busy_per_cu[cu] = 0;
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        if (rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] > 0.0) {
            ++out.busy_per_cu[c / cfg_.cores_per_cu];
            ++busy_total;
        }
    }

    // Ownership split of chipIdleMixed(): base over all cores, NB over
    // all cores when the NB is awake, each counted CU's Pidle(CU) over
    // that CU's cores.
    const double n_cores = static_cast<double>(cfg_.coreCount());
    const bool nb_awake = busy_total > 0 || !pg_enabled;
    const double base_share = pg_.pBaseAvg() / n_cores;
    const double nb_share = nb_awake ? pg_.pNbAvg() / n_cores : 0.0;
    const double cu_cores = static_cast<double>(cfg_.cores_per_cu);

    double dyn_total = 0.0;
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const bool cu_counts = out.busy_per_cu[cu] > 0 || !pg_enabled;
        const double cu_share =
            cu_counts ? pg_.components(rec.cu_vf[cu]).p_cu / cu_cores
                      : 0.0;
        const double idle_c = base_share + nb_share + cu_share;

        double dyn_c = 0.0;
        if (rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] > 0.0) {
            const auto rates = model::powerEventRates(rec.pmc[c],
                                                      rec.duration_s);
            const double voltage =
                cfg_.vf_table.state(rec.cu_vf[cu]).voltage;
            dyn_c = dyn_.estimate(rates, voltage);
        }
        dyn_total += dyn_c;

        const std::ptrdiff_t owner = owner_[c];
        if (owner >= 0) {
            const auto t = static_cast<std::size_t>(owner);
            out.dynamic_w[t] += dyn_c;
            out.idle_w[t] += idle_c;
        } else {
            out.unattributed_w += dyn_c + idle_c;
        }
    }
    for (std::size_t t = 0; t < specs_.size(); ++t)
        out.total_w[t] = out.dynamic_w[t] + out.idle_w[t];

    // Independent total for the reconciliation invariant: the sum of
    // the per-tenant shares and the unattributed remainder must match
    // this to floating-point round-off.
    out.chip_total_w =
        dyn_total +
        pg_.chipIdleMixed(rec.cu_vf, out.busy_per_cu, pg_enabled);
}

} // namespace ppep::runtime
