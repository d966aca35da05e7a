#include "ppep/sim/northbridge.hpp"

#include "ppep/math/root_find.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::sim {

NorthBridge::NorthBridge(const ChipConfig &cfg)
    : cfg_(cfg), vf_(cfg.nb.vf_hi)
{
}

void
NorthBridge::setVf(const VfState &vf) PPEP_NONBLOCKING
{
    PPEP_ASSERT(vf.freq_ghz > 0.0 && vf.voltage > 0.0, "bad NB VF state");
    vf_ = vf;
}

double
NorthBridge::l3LatencyNs() const PPEP_NONBLOCKING
{
    return cfg_.nb.l3_latency_cycles / vf_.freq_ghz;
}

double
NorthBridge::dramLatencyNs() const PPEP_NONBLOCKING
{
    return cfg_.nb.dram_fixed_ns +
           cfg_.nb.mc_latency_cycles / vf_.freq_ghz;
}

double
NorthBridge::coreLatencyNs(double l3_miss_rate, double queue_factor) const PPEP_NONBLOCKING
{
    return l3LatencyNs() * (1.0 - l3_miss_rate) +
           dramLatencyNs() * queue_factor * l3_miss_rate;
}

namespace {

/** Most demand evaluations one solve may take (bisection alone needs ~50). */
constexpr int kMaxEvaluations = 64;

/**
 * DRAM demand at utilisation @p u, as a fraction of peak bandwidth:
 * rho(u) = bytes(u) / bw_max with every busy core priced at queue
 * factor q = 1/(1 - u) and MLP scale s = 1 + mlp_collapse * u^2. Writes
 * each core's latency into @p mem_lat_ns and rho'(u) into @p slope.
 *
 * Per core, lat = (l3 (1 - m) + dram q m) s, so
 * lat' = dram m q^2 s + (l3 (1 - m) + dram q m) 2 mlp_collapse u, and
 * ips = f 1e9 / (ccpi + leading lat f) gives ips' = -ips^2 leading 1e-9 lat'.
 */
double
demandAt(const NbConfig &nb, double l3_ns, double dram_ns,
         std::span<const CoreDemand> demands, double u,
         std::vector<double> &mem_lat_ns, double &slope) PPEP_NONBLOCKING
{
    const double q = 1.0 / (1.0 - u);
    const double mlp_scale = 1.0 + nb.mlp_collapse * u * u;
    const double mlp_slope = 2.0 * nb.mlp_collapse * u;
    double bytes = 0.0;
    double dbytes = 0.0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const auto &d = demands[i];
        const double miss =
            d.rates.l3_per_inst > 0.0
                ? d.rates.dram_per_inst / d.rates.l3_per_inst
                : 0.0;
        const double base = l3_ns * (1.0 - miss) + dram_ns * q * miss;
        const double lat = base * mlp_scale;
        mem_lat_ns[i] = lat;
        const double dlat =
            dram_ns * miss * q * q * mlp_scale + base * mlp_slope;
        const double ips = CoreModel::instRate(d.rates, d.f_ghz, lat);
        const double per_inst = d.rates.dram_per_inst * nb.line_bytes;
        bytes += ips * per_inst;
        dbytes -=
            ips * ips * d.rates.leading_per_inst * 1e-9 * dlat * per_inst;
    }
    const double bw_max = nb.dram_bw_gbs * 1e9;
    slope = dbytes / bw_max;
    return bytes / bw_max;
}

} // namespace

void
NorthBridge::resolveInto(std::span<const CoreDemand> demands,
                         NbResolution &res) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(res.mem_lat_ns.size() >= demands.size(),
                "latency buffer smaller than the demand set");
    res.utilization = 0.0;
    res.queue_factor = 1.0;
    res.evaluations = 0;
    if (demands.empty())
        return;

    // G(u) = rho(u) - u: rho never rises with u, so G' = rho' - 1 <= -1
    // and G has one zero, which the cap clamps. Each evaluation fills
    // mem_lat_ns, so the latencies belong to the returned u.
    const NbConfig &nb = cfg_.nb;
    const double l3_ns = l3LatencyNs();
    const double dram_ns = dramLatencyNs();
    const math::ScalarRoot root = math::decreasingRoot(
        [&](double u, double &slope) PPEP_NONBLOCKING {
            const double rho = demandAt(nb, l3_ns, dram_ns, demands, u,
                                        res.mem_lat_ns, slope);
            slope -= 1.0;
            return rho - u;
        },
        0.0, nb.max_utilization, 1e-15, kMaxEvaluations);

    res.utilization = root.x;
    res.queue_factor = 1.0 / (1.0 - root.x);
    res.evaluations = root.evaluations;
}

} // namespace ppep::sim
