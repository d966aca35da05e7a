#include "nb_damped_oracle.hpp"

#include <algorithm>
#include <cmath>

namespace ppep::oracle {

bool
resolveDamped(const sim::ChipConfig &cfg, const sim::NorthBridge &nb,
              const std::vector<sim::CoreDemand> &demands,
              sim::NbResolution &res)
{
    res.mem_lat_ns.assign(demands.size(), 0.0);
    res.utilization = 0.0;
    res.queue_factor = 1.0;
    if (demands.empty())
        return true;

    const double bw_max = cfg.nb.dram_bw_gbs * 1e9;

    // Fixed point: latency -> instruction rate -> bandwidth -> latency.
    // Damped iteration converges in a handful of rounds for any sane
    // utilisation; the cap keeps the M/M/1 form from diverging.
    double queue_factor = 1.0;
    double utilization = 0.0;
    bool converged = false;
    for (int iter = 0; iter < 100; ++iter) {
        // MLP collapse: under pressure, overlapped misses serialise and
        // the effective leading-load latency grows super-linearly.
        const double mlp_scale =
            1.0 + cfg.nb.mlp_collapse * utilization * utilization;
        double bytes_per_s = 0.0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            const auto &d = demands[i];
            const double lat = nb.coreLatencyNs(
                d.rates.l3_per_inst > 0.0
                    ? d.rates.dram_per_inst / d.rates.l3_per_inst
                    : 0.0,
                queue_factor) * mlp_scale;
            res.mem_lat_ns[i] = lat;
            const double ips = sim::CoreModel::instRate(d.rates, d.f_ghz, lat);
            bytes_per_s += ips * d.rates.dram_per_inst * cfg.nb.line_bytes;
        }
        const double rho =
            std::min(bytes_per_s / bw_max, cfg.nb.max_utilization);
        const double target_qf = 1.0 / (1.0 - rho);
        const double next_qf = 0.5 * queue_factor + 0.5 * target_qf;
        converged = std::fabs(next_qf - queue_factor) < 1e-12;
        queue_factor = next_qf;
        utilization = rho;
        if (converged)
            break;
    }

    res.utilization = utilization;
    res.queue_factor = queue_factor;
    return converged;
}

} // namespace ppep::oracle
