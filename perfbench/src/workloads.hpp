/**
 * @file
 * The benchmark's three closed-loop fleet workloads, generated from a
 * workload seed. The program under test sees only the generated
 * FleetSpec: placements, chip seeds, fault seeds and the budget.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ppep/runtime/fleet.hpp"
#include "ppep/workloads/suite.hpp"

namespace perfbench {

enum class Workload
{
    FleetSim,
    FleetReplay,
    FleetBudget,
};

/** Parse a workload name; returns false for an unknown one. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** One workload instance: the fleet to run and how to drive it. */
struct Plan
{
    Workload kind = Workload::FleetSim;
    /** Sessions, intervals, governors, budget; no store or paths yet. */
    ppep::runtime::FleetSpec spec;
    /** The distinct chip configs the fleet trains (setup cost). */
    std::vector<ppep::sim::ChipConfig> configs;
    /** Training set shared by every registry entry. */
    std::vector<const ppep::workloads::Combination *> training;
    /** Fleet workers for the timed passes (the 1-worker reference
     *  pass is separate). */
    std::size_t workers = 2;
    /** Fleet workers for the traced run (--trace 1). */
    std::size_t trace_workers = 2;
    /** Cold set-ups per end-to-end run; setup_s is their median. */
    std::size_t setup_reps = 5;
};

/**
 * Build the workload from @p seed. @p quick shrinks the fleet and the
 * intervals for the benchmark's own smoke test; the timed figures are
 * then not comparable with full runs.
 */
Plan makePlan(Workload w, std::uint64_t seed, bool quick);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
