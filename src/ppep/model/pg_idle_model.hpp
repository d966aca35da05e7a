/**
 * @file
 * Power-gating-aware idle power decomposition (paper Sec. IV-D,
 * Fig. 4, Eqs. 7-8).
 *
 * The Fig. 4 experiment sweeps the number of busy CUs from 0 to 4 with PG
 * enabled and disabled, using bench_A (steady, L1-resident, NB-silent).
 * The bar gaps isolate the idle power of one CU, the NB, and the
 * always-on base:
 *
 *   gap(k busy CUs)  = (n_cus - k) * Pidle(CU)          for k >= 1
 *   gap(0 busy CUs)  = n_cus * Pidle(CU) + Pidle(NB)    (NB gates too)
 *   Pidle(Base)      = PG-enabled fully-idle power
 *
 * The paper's Eq. 7 (PG on: busy cores in a CU share that CU's idle
 * power; all busy cores share NB + base) and Eq. 8 (PG off: all busy
 * cores share the whole chip idle power) split these components across
 * cores. runtime::TenantAttributor splits chipIdleMixed() by ownership
 * instead, which equals Eq. 7/8 when every core is busy.
 */

#ifndef PPEP_MODEL_PG_IDLE_MODEL_HPP
#define PPEP_MODEL_PG_IDLE_MODEL_HPP

#include <cstddef>
#include <vector>
#include "ppep/util/annotations.hpp"

namespace ppep::model {

/** Measured chip power for the Fig. 4 sweep at one VF state. */
struct PgSweepMeasurement
{
    /** VF index these measurements were taken at. */
    std::size_t vf_index = 0;
    /** power_pg_off[k] = chip power with k busy CUs, PG disabled. */
    std::vector<double> power_pg_off;
    /** power_pg_on[k] = chip power with k busy CUs, PG enabled. */
    std::vector<double> power_pg_on;
};

/** Extracted idle components at one VF state. */
struct PgIdleComponents
{
    double p_cu = 0.0;   ///< Pidle(CU)
    double p_nb = 0.0;   ///< Pidle(NB)
    double p_base = 0.0; ///< Pidle(Base) — VF-independent in principle
};

/** The Fig. 4 idle power decomposition behind Eqs. 7-8. */
class PgIdleModel
{
  public:
    PgIdleModel() = default;

    /**
     * Derive components from Fig. 4 sweeps (one per VF state, each with
     * n_cus+1 entries per PG setting).
     */
    static PgIdleModel fromSweeps(
        const std::vector<PgSweepMeasurement> &sweeps,
        std::size_t n_cus);

    /** Components at a VF index. @pre trained and index known. */
    const PgIdleComponents &components(std::size_t vf_index) const PPEP_NONBLOCKING;

    /** Number of CUs the model was built for. */
    std::size_t cuCount() const { return n_cus_; }

    /**
     * NB idle power averaged over the measured VF states. The NB runs in
     * its own fixed VF domain, so its idle power is core-VF-independent
     * up to measurement noise; the average is what mixed per-CU VF
     * assignments should use. Computed once when the model is built.
     */
    double pNbAvg() const PPEP_NONBLOCKING;

    /** Base (always-on) power averaged over the measured VF states. */
    double pBaseAvg() const PPEP_NONBLOCKING;

    /**
     * Chip idle power for a per-CU VF assignment (size n_cus each):
     * pBaseAvg() always, plus pNbAvg() when the NB is awake, plus each
     * counted CU's Pidle(CU) at that CU's own VF. With PG on, a CU
     * counts only when it has a busy core and the NB is awake only
     * when some CU is busy, so a fully idle chip costs the base alone.
     * With PG off nothing gates: every CU and the NB count.
     */
    double chipIdleMixed(const std::vector<std::size_t> &cu_vf,
                         const std::vector<std::size_t> &busy_per_cu,
                         bool pg_enabled) const PPEP_NONBLOCKING;

    /** Whether fromSweeps() produced this model. */
    bool trained() const { return !components_.empty(); }

    /** All per-VF components in index order (serialization). */
    const std::vector<PgIdleComponents> &allComponents() const
    {
        return components_;
    }

    /** Rebuild a trained model from its components (serialization). */
    static PgIdleModel
    fromComponents(std::vector<PgIdleComponents> components,
                   std::size_t n_cus);

  private:
    /** Fill the pNbAvg()/pBaseAvg() cache from components_. */
    void cacheAverages();

    std::vector<PgIdleComponents> components_; ///< indexed by VF
    std::size_t n_cus_ = 0;
    double p_nb_avg_ = 0.0;
    double p_base_avg_ = 0.0;
};

} // namespace ppep::model

#endif // PPEP_MODEL_PG_IDLE_MODEL_HPP
