/**
 * @file
 * The traced drive of fleet_sim and fleet_replay: every session built
 * through Session::builder() with the fleet's shared models and a
 * TimingGovernor, driven by a GovernorLoop over a TimingSource, with
 * the telemetry fan-out (digest + summary) timed as the encode layer.
 * Same sessions, same worker count and same digests as Fleet::run.
 */

#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ppep/runtime/fleet.hpp"
#include "ppep/trace/replay.hpp"
#include "spans.hpp"

namespace perfbench {

struct TracedPass
{
    double wall_s = 0.0;
    std::size_t intervals = 0;
    /** Per-session telemetry digest (spec order); 0 when it failed. */
    std::vector<std::uint64_t> digests;
    std::size_t failed = 0;
};

/** Index of the stream recorded for session @p name; throws when the
 *  file has none. */
std::size_t streamOf(const ppep::trace::ReplayFile &file,
                     const std::string &name);

/**
 * One traced pass over every session of @p fleet's spec on @p workers
 * threads. With @p replay set, sessions govern from its streams instead
 * of simulating.
 */
TracedPass runTracedPass(ppep::runtime::Fleet &fleet,
                         const ppep::trace::ReplayFile *replay,
                         std::size_t workers, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP
