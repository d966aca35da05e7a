#include "ppep/model/ppep.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::model {

Ppep::Ppep(const sim::ChipConfig &cfg, ChipPowerModel power,
           PgIdleModel pg)
    : cfg_(cfg), power_(std::move(power)), pg_(std::move(pg))
{
    PPEP_ASSERT(power_.trained(), "PPEP requires a trained power model");
    // Hoist everything per-VF that does not depend on the observed
    // interval: the explore() hot path then runs pow()- and
    // polynomial-free over dense coefficient arrays.
    plan_ = ExplorePlan::build(power_, cfg_.vf_table);
}

void
Ppep::exploreInto(const trace::IntervalRecord &rec,
                  std::vector<VfPrediction> &out,
                  ExploreScratch &scratch) const PPEP_NONBLOCKING
{
    PPEP_ASSERT(!rec.cu_vf.empty(), "record has no VF context");
    const sim::VfState &now = cfg_.vf_table.state(rec.cu_vf.front());

    // The target-independent per-core work (CPI decomposition, Obs. 1/2
    // invariants) is shared across the whole VF sweep.
    // rt-escape: warm-up growth of the caller-owned observation buffer.
    PPEP_RT_WARMUP_BEGIN
    scratch.obs.resize(rec.pmc.size());
    PPEP_RT_WARMUP_END
    for (std::size_t c = 0; c < rec.pmc.size(); ++c)
        scratch.obs[c] = EventPredictor::observe(
            rec.pmc[c], rec.duration_s, now.freq_ghz);

    const std::size_t n_cores = scratch.obs.size();
    const std::size_t n_vf = plan_.size();
    exploreBatch(plan_, scratch.obs.data(), n_cores, scratch.ws);

    // Assemble the kernel's core×VF matrices into per-VF predictions.
    // Accumulation runs in core order per VF — the same order as the
    // scalar oracle in tests/ — so the sums round identically.
    // rt-escape: warm-up growth of the caller-owned prediction vector.
    PPEP_RT_WARMUP_BEGIN
    out.resize(n_vf);
    PPEP_RT_WARMUP_END
    const ExploreWorkspace &ws = scratch.ws;
    for (std::size_t vf = 0; vf < n_vf; ++vf) {
        VfPrediction &p = out[vf];
        p.vf_index = vf;
        p.total_ips = 0.0;
        p.energy_per_inst = 0.0;
        p.edp_per_inst = 0.0;
        p.idle_w = plan_.idle_slope[vf] * rec.diode_temp_k +
                   plan_.idle_icept[vf];
        double dyn_core_w = 0.0, dyn_nb_w = 0.0;
        // rt-escape: warm-up growth of the per-VF core array.
        PPEP_RT_WARMUP_BEGIN
        p.cores.resize(n_cores);
        PPEP_RT_WARMUP_END
        for (std::size_t c = 0; c < n_cores; ++c) {
            const std::size_t cell = c * n_vf + vf;
            CorePpe &core = p.cores[c];
            core.cpi = ws.cpi[cell];
            core.ips = ws.ips[cell];
            core.busy = core.ips > 0.0;
            const double core_w = ws.core_w[cell];
            const double nb_w = ws.nb_w[cell];
            core.dynamic_w = core_w + nb_w;
            dyn_core_w += core_w;
            dyn_nb_w += nb_w;
            if (core.busy)
                p.total_ips += core.ips * scratch.obs[c].busy_frac;
        }
        p.dynamic_w = dyn_core_w + dyn_nb_w;
        p.chip_power_w = p.idle_w + p.dynamic_w;
        if (p.total_ips > 0.0) {
            p.energy_per_inst = p.chip_power_w / p.total_ips;
            p.edp_per_inst =
                p.chip_power_w / (p.total_ips * p.total_ips);
        }
    }
}

std::vector<VfPrediction>
Ppep::explore(const trace::IntervalRecord &rec) const
{
    std::vector<VfPrediction> out;
    ExploreScratch scratch;
    exploreInto(rec, out, scratch);
    return out;
}

} // namespace ppep::model
