/**
 * @file
 * Test-only golden reference for NorthBridge::resolveInto(): the
 * 0.5-damped fixed-point iteration the bracketed Newton solve replaced.
 *
 * Each round prices every busy core at the current queue factor and
 * MLP scale, sums the DRAM bytes, and moves the queue factor half-way
 * towards 1/(1 - rho); it stops once a round moves the queue factor by
 * less than 1e-12, or after 100 rounds. The Newton solve must agree
 * with it to 1e-9 relative wherever it converged.
 */

#ifndef PPEP_TESTS_NB_DAMPED_ORACLE_HPP
#define PPEP_TESTS_NB_DAMPED_ORACLE_HPP

#include <vector>

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/northbridge.hpp"

namespace ppep::oracle {

/**
 * Resolve the NB contention fixed point of @p demands on @p nb (built
 * from @p cfg) by damped iteration. Returns whether a round moved the
 * queue factor by less than 1e-12 within the 100-round budget.
 */
bool resolveDamped(const sim::ChipConfig &cfg, const sim::NorthBridge &nb,
                   const std::vector<sim::CoreDemand> &demands,
                   sim::NbResolution &res);

} // namespace ppep::oracle

#endif // PPEP_TESTS_NB_DAMPED_ORACLE_HPP
