/**
 * @file
 * Allocating wrappers over the simulator's per-tick entry points.
 *
 * HwPowerModel::computeInto and NorthBridge::resolveInto write into
 * buffers the caller sized; the chip sizes them once at construction.
 * These helpers size a fresh result and call them, so a test can take
 * the result by value.
 */

#ifndef PPEP_TESTS_SIZED_RESULTS_HPP
#define PPEP_TESTS_SIZED_RESULTS_HPP

#include <vector>

#include "ppep/sim/hw_power_model.hpp"
#include "ppep/sim/northbridge.hpp"

namespace ppep::test {

/** HwPowerModel::computeInto into a breakdown sized for its inputs. */
inline sim::PowerBreakdown
computePower(const sim::HwPowerModel &model,
             const std::vector<sim::CorePowerInput> &cores,
             const std::vector<bool> &cu_gated, bool nb_gated,
             const std::vector<double> &cu_voltage,
             const std::vector<double> &cu_freq_ghz,
             const sim::VfState &nb_vf, double temp_k, double dt_s)
{
    sim::PowerBreakdown out;
    out.cu_idle.resize(cu_gated.size());
    out.core_dynamic.resize(cores.size());
    model.computeInto(cores, cu_gated, nb_gated, cu_voltage, cu_freq_ghz,
                      nb_vf, temp_k, dt_s, out);
    return out;
}

/** NorthBridge::resolveInto into a result sized for @p demands. */
inline sim::NbResolution
resolveNb(const sim::NorthBridge &nb,
          const std::vector<sim::CoreDemand> &demands)
{
    sim::NbResolution res;
    res.mem_lat_ns.resize(demands.size());
    nb.resolveInto(demands, res);
    return res;
}

} // namespace ppep::test

#endif // PPEP_TESTS_SIZED_RESULTS_HPP
