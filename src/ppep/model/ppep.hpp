/**
 * @file
 * The PPEP framework facade (paper Fig. 5).
 *
 * One object bundles the four trained components — CPI predictor, idle
 * power model, dynamic power model, hardware event predictor — plus the
 * PG-aware idle decomposition, and exposes the Fig. 5 pipeline: feed in
 * one interval's observations (PMC counts, VF state, temperature) and get
 * back predicted performance, power, and energy at *every* VF state, for
 * the chip and per core. DVFS policies (ppep::governor) consume these
 * predictions to act in a single step.
 *
 * The full-table sweep runs on the batched VF×core kernel
 * (explore_kernel.hpp): a branch-free data-parallel pass over the
 * precomputed per-VF plan, bit-identical to the scalar per-VF sweep
 * that tests/explore_scalar_oracle.cpp keeps as its test oracle.
 */

#ifndef PPEP_MODEL_PPEP_HPP
#define PPEP_MODEL_PPEP_HPP

#include <cstddef>
#include <vector>

#include "ppep/model/chip_power_model.hpp"
#include "ppep/model/explore_kernel.hpp"
#include "ppep/model/pg_idle_model.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::model {

/** Per-core performance/power prediction at one VF state. */
struct CorePpe
{
    double cpi = 0.0;       ///< predicted CPI
    double ips = 0.0;       ///< predicted instructions/second
    double dynamic_w = 0.0; ///< predicted dynamic power, watts
    bool busy = false;      ///< whether the core had work
};

/** Chip-level prediction at one VF state (global DVFS). */
struct VfPrediction
{
    std::size_t vf_index = 0;
    double chip_power_w = 0.0;
    double idle_w = 0.0;
    double dynamic_w = 0.0;
    /** Summed predicted instruction rate over busy cores. */
    double total_ips = 0.0;
    /** Energy per instruction, J — the fixed-work energy metric. */
    double energy_per_inst = 0.0;
    /** Energy-delay product per instruction^2, J*s — fixed-work EDP. */
    double edp_per_inst = 0.0;
    std::vector<CorePpe> cores;
};

/**
 * Caller-owned scratch for the allocation-free exploration path. Holds
 * the per-core observation buffer and the batched kernel's core×VF
 * result matrices that explore() would otherwise allocate every
 * interval; reuse one instance per control loop and the steady-state
 * sweep performs no heap allocation at all.
 */
struct ExploreScratch
{
    std::vector<CoreObservation> obs;
    ExploreWorkspace ws;
};

/** The assembled PPEP predictor. */
class Ppep
{
  public:
    /**
     * @param cfg   chip description (topology + VF table).
     * @param power trained idle+dynamic chip power model.
     * @param pg    trained PG idle decomposition, read by the per-CU
     *              governors; pass an untrained model for chips without
     *              PG (exploration still works).
     */
    Ppep(const sim::ChipConfig &cfg, ChipPowerModel power,
         PgIdleModel pg);

    /**
     * The Fig. 5 pipeline for global DVFS: predictions at every VF state
     * for the workload captured in @p rec. Allocates its result and
     * scratch; a control loop calls exploreInto() instead.
     */
    std::vector<VfPrediction>
    explore(const trace::IntervalRecord &rec) const;

    /**
     * The fully allocation-free exploration: every buffer —
     * predictions, per-core observations, kernel matrices — is
     * caller-owned and reused across calls. This is the steady-state
     * governing path; it runs the batched VF×core kernel.
     */
    void exploreInto(const trace::IntervalRecord &rec,
                     std::vector<VfPrediction> &out,
                     ExploreScratch &scratch) const PPEP_NONBLOCKING;

    /** Underlying chip power model. */
    const ChipPowerModel &powerModel() const { return power_; }

    /** Underlying PG idle decomposition. */
    const PgIdleModel &pgModel() const { return pg_; }

    /** VF table in use. */
    const sim::VfTable &vfTable() const { return cfg_.vf_table; }

    /** The precomputed per-VF exploration plan (read-only). */
    const ExplorePlan &plan() const { return plan_; }

  private:
    sim::ChipConfig cfg_;
    ChipPowerModel power_;
    PgIdleModel pg_;
    ExplorePlan plan_;
};

} // namespace ppep::model

#endif // PPEP_MODEL_PPEP_HPP
