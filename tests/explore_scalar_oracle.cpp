#include "explore_scalar_oracle.hpp"

#include <array>

#include "ppep/model/event_predictor.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::oracle {

namespace {

/** One VF state's prediction, cores in order. */
void
predictVf(const model::Ppep &ppep, const trace::IntervalRecord &rec,
          const std::vector<model::CoreObservation> &obs,
          std::size_t target_vf, model::VfPrediction &out)
{
    const model::ExplorePlan &plan = ppep.plan();
    const double freq_ghz = plan.freq_ghz[target_vf];
    const double vscale = plan.vscale[target_vf];
    const model::DynamicPowerModel &dynamic =
        ppep.powerModel().dynamicModel();

    out.vf_index = target_vf;
    out.total_ips = 0.0;
    out.energy_per_inst = 0.0;
    out.edp_per_inst = 0.0;

    // Eq. 2 idle part with the voltage polynomials pre-evaluated.
    out.idle_w = plan.idle_slope[target_vf] * rec.diode_temp_k +
                 plan.idle_icept[target_vf];

    double dyn_core_w = 0.0, dyn_nb_w = 0.0;
    out.cores.resize(rec.pmc.size());
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        const model::PredictedCoreState pred =
            model::EventPredictor::predictAt(obs[c], freq_ghz);
        model::CorePpe &core = out.cores[c];
        core.cpi = pred.cpi;
        core.ips = pred.ips;
        core.busy = pred.ips > 0.0;
        std::array<double, sim::kNumPowerEvents> rates{};
        for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
            rates[i] = pred.rates_per_s[i];
        double core_w = 0.0, nb_w = 0.0;
        dynamic.splitScaled(rates, vscale, core_w, nb_w);
        core.dynamic_w = core_w + nb_w;
        dyn_core_w += core_w;
        dyn_nb_w += nb_w;
        if (core.busy)
            out.total_ips +=
                pred.rates_per_s[sim::eventIndex(
                    sim::Event::RetiredInst)];
    }

    out.dynamic_w = dyn_core_w + dyn_nb_w;
    out.chip_power_w = out.idle_w + out.dynamic_w;
    if (out.total_ips > 0.0) {
        out.energy_per_inst = out.chip_power_w / out.total_ips;
        out.edp_per_inst = out.chip_power_w / (out.total_ips *
                                               out.total_ips);
    }
}

} // namespace

void
exploreScalar(const model::Ppep &ppep, const trace::IntervalRecord &rec,
              std::vector<model::VfPrediction> &out,
              model::ExploreScratch &scratch)
{
    PPEP_ASSERT(!rec.cu_vf.empty(), "record has no VF context");
    const sim::VfState &now = ppep.vfTable().state(rec.cu_vf.front());

    // The target-independent per-core work is shared across the sweep.
    std::vector<model::CoreObservation> &obs = scratch.obs;
    obs.resize(rec.pmc.size());
    for (std::size_t c = 0; c < rec.pmc.size(); ++c)
        obs[c] = model::EventPredictor::observe(
            rec.pmc[c], rec.duration_s, now.freq_ghz);

    out.resize(ppep.plan().size());
    for (std::size_t vf = 0; vf < ppep.plan().size(); ++vf)
        predictVf(ppep, rec, obs, vf, out[vf]);
}

} // namespace ppep::oracle
