/**
 * @file
 * Shared north-bridge model: L3 + memory-controller latency, DRAM
 * bandwidth contention, and the NB's own VF state.
 *
 * All cores share the NB (Sec. II), so memory-bound co-runners slow each
 * other down — the mechanism behind the paper's background-workload
 * findings (Figs. 8-10). Contention is modelled as an M/M/1-style queueing
 * inflation of DRAM latency with total bandwidth utilisation, resolved by
 * a per-tick fixed point over all busy cores (demand depends on latency,
 * latency depends on demand).
 *
 * The fixed point is a scalar root in the DRAM utilisation u. At u every
 * core sees queue factor q = 1/(1 - u) and MLP scale 1 + mlp_collapse u^2;
 * both only grow with u, so each core's latency grows, its instruction
 * rate falls, and the demanded fraction of peak bandwidth rho(u) is
 * non-increasing (ChipConfig::validate() rejects the negative
 * mlp_collapse, line size and latencies that would break this).
 * G(u) = rho(u) - u is then strictly decreasing, with one root on
 * [0, max_utilization] or none, in which case the cap binds. The solve is
 * a bracketed Newton iteration on G with the analytic derivative,
 * started cold at u = 0 every tick.
 */

#ifndef PPEP_SIM_NORTHBRIDGE_HPP
#define PPEP_SIM_NORTHBRIDGE_HPP

#include <span>
#include <vector>

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/core_model.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** One busy core's demand description for the contention fixed point. */
struct CoreDemand
{
    /** Effective per-instruction rates for this tick. */
    PerInstRates rates;
    /** Core frequency, GHz. */
    double f_ghz = 0.0;
};

/** Resolved contention state for one tick. */
struct NbResolution
{
    /** Average leading-load latency of each demand, in demand order,
     *  nanoseconds; entries past the demand count are left as they
     *  were. */
    std::vector<double> mem_lat_ns;
    /** Total DRAM bandwidth utilisation in [0, max_utilization]. */
    double utilization = 0.0;
    /** Queueing inflation factor applied to DRAM latency (>= 1). */
    double queue_factor = 1.0;
    /** Demand evaluations (passes over the busy cores) the solve took. */
    int evaluations = 0;
};

/**
 * The north bridge: owns the NB VF state and answers latency queries.
 * Stateless across ticks except for the VF setting.
 */
class NorthBridge
{
  public:
    explicit NorthBridge(const ChipConfig &cfg);

    /** Current NB operating point. */
    const VfState &vf() const PPEP_NONBLOCKING { return vf_; }

    /** Change the NB operating point (the Sec. V-C2 what-if). */
    void setVf(const VfState &vf) PPEP_NONBLOCKING;

    /** L3 hit latency at the current NB frequency, nanoseconds. */
    double l3LatencyNs() const PPEP_NONBLOCKING;

    /** Uncontended DRAM access latency, nanoseconds. */
    double dramLatencyNs() const PPEP_NONBLOCKING;

    /**
     * Average leading-load latency for a core whose L3 accesses miss to
     * DRAM with probability @p l3_miss_rate, given a DRAM queueing factor.
     */
    double coreLatencyNs(double l3_miss_rate, double queue_factor) const PPEP_NONBLOCKING;

    /**
     * Resolve the contention fixed point for one tick: given every busy
     * core's demand, find mutually consistent per-core latencies and the
     * resulting DRAM utilisation. Writes the first demands.size()
     * entries of @p res's latency buffer, which the caller sizes at
     * least that long — the allocation-free per-tick path.
     *
     * Returns u = min(root of rho(u) = u, max_utilization), with
     * queue_factor = 1/(1 - u) and mem_lat_ns priced at u. If
     * rho(max_utilization) >= max_utilization the cap binds and u is
     * exactly max_utilization. Otherwise Newton steps from u = 0 on
     * G(u) = rho(u) - u, keeping a bracket [lo, hi] with G(lo) > 0 and
     * G(hi) < 0: a step that leaves the bracket is replaced by a probe
     * of the cap while its sign is unknown, and by bisection after.
     * The solve stops once a step moves u by at most 1e-15 relative
     * and reports the last point it evaluated, about 7 passes over the
     * busy cores on the fleet workloads.
     */
    void resolveInto(std::span<const CoreDemand> demands,
                     NbResolution &res) const PPEP_NONBLOCKING;

  private:
    const ChipConfig &cfg_;
    VfState vf_;
};

} // namespace ppep::sim

#endif // PPEP_SIM_NORTHBRIDGE_HPP
