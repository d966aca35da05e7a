/**
 * @file
 * Multi-tenant power and energy attribution on one simulated chip.
 *
 * A tenant is a named set of cores (and the jobs pinned to them) that
 * time-shares a chip with other tenants. Each interval, the chip's
 * predicted power is split across tenants using the models the paper
 * already provides: every busy core is charged its own Eq. 3 dynamic
 * power from its private counters at its CU's voltage (the paper's
 * Sec. IV-D per-core total), and the chip idle power — the Fig. 4
 * decomposition behind Eqs. 7-8 — is divided by *ownership* rather
 * than by busyness, so an all-idle tenant is still charged its pg-idle
 * share of the base/NB floor while gated CUs it owns cost it nothing.
 * When every core is busy the ownership split is the paper's Eq. 7
 * (PG on) or Eq. 8 (PG off) per-core share. The split mirrors
 * PgIdleModel::chipIdleMixed() term for term, so per-tenant totals
 * plus the unattributed remainder reconcile with the chip total to
 * floating-point round-off (the invariant the tenant soak test asserts
 * at 1e-9 W).
 *
 * The warm path is allocation-free: TenantAttribution is sized once by
 * makeAttribution() and attributeInto() only writes through it.
 */

#ifndef PPEP_RUNTIME_TENANT_HPP
#define PPEP_RUNTIME_TENANT_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "ppep/model/dynamic_power_model.hpp"
#include "ppep/model/pg_idle_model.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::runtime {

/** One workload pinned to one of a tenant's cores. */
struct TenantJob
{
    /** Core the job runs on; must be owned by the tenant. */
    std::size_t core = 0;
    /** Workload program name (workloads::suite). */
    std::string program;
    /** Restart the program when it finishes. */
    bool looping = true;
};

/** A named set of cores time-sharing the chip. */
struct TenantSpec
{
    std::string name;
    /** Cores this tenant owns; disjoint across tenants, in range. */
    std::vector<std::size_t> cores;
    /** Jobs to launch on the tenant's cores. */
    std::vector<TenantJob> jobs;
};

/**
 * One interval's attribution result + reusable scratch. Size with
 * TenantAttributor::makeAttribution() once; attributeInto() never
 * grows it.
 */
struct TenantAttribution
{
    /** Eq. 3 dynamic power summed over each tenant's busy cores, W. */
    std::vector<double> dynamic_w;
    /** Ownership share of the Fig. 4 idle decomposition, W. */
    std::vector<double> idle_w;
    /** dynamic_w + idle_w, per tenant. */
    std::vector<double> total_w;
    /** Power on cores no tenant owns (dynamic + idle shares), W. */
    double unattributed_w = 0.0;
    /** Independently computed chip total: Eq. 3 sum + chipIdleMixed. */
    double chip_total_w = 0.0;

    /** Scratch: busy cores per CU (Eq. 7/8 topology). */
    std::vector<std::size_t> busy_per_cu;
};

/**
 * Splits one interval's predicted chip power across tenants.
 *
 * Requires a trained Eq. 3 dynamic model and a trained Fig. 4 PG idle
 * decomposition; platforms without power gating (Phenom II) have no
 * trained PgIdleModel and are rejected at construction.
 */
class TenantAttributor
{
  public:
    /**
     * @param cfg   platform description (topology, VF table).
     * @param dyn   trained Eq. 3 model; must outlive the attributor.
     * @param pg    trained Eq. 7/8 decomposition; must outlive it.
     * @param specs tenant definitions; validated (non-empty disjoint
     *              in-range core sets, jobs on owned cores).
     */
    TenantAttributor(const sim::ChipConfig &cfg,
                     const model::DynamicPowerModel &dyn,
                     const model::PgIdleModel &pg,
                     std::vector<TenantSpec> specs);

    /** A correctly sized result/scratch block for attributeInto(). */
    TenantAttribution makeAttribution() const;

    /**
     * Attribute one interval. @p out must come from makeAttribution().
     *
     * Idle split, mirroring chipIdleMixed(): pBaseAvg is divided
     * equally among all cores; pNbAvg likewise when the NB is awake
     * (any core busy, or PG off); each counted CU's Pidle(CU) at its
     * own VF is divided equally among that CU's cores. A CU counts
     * when it has a busy core or PG is off — a gated CU charges its
     * owners nothing, which is exactly the Eq. 7 boundary condition.
     */
    void attributeInto(const trace::IntervalRecord &rec, bool pg_enabled,
                       TenantAttribution &out) const PPEP_NONBLOCKING;

    const std::vector<TenantSpec> &specs() const { return specs_; }

    std::size_t tenantCount() const { return specs_.size(); }

    /** Owning tenant index for a core, or -1 when unowned. */
    std::ptrdiff_t ownerOf(std::size_t core) const
    {
        return owner_[core];
    }

  private:
    const sim::ChipConfig &cfg_;
    const model::DynamicPowerModel &dyn_;
    const model::PgIdleModel &pg_;
    std::vector<TenantSpec> specs_;
    std::vector<std::ptrdiff_t> owner_; ///< core -> tenant index or -1
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_TENANT_HPP
