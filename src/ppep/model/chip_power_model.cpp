#include "ppep/model/chip_power_model.hpp"

#include <algorithm>

#include "ppep/util/logging.hpp"

namespace ppep::model {

ChipPowerModel::ChipPowerModel(IdlePowerModel idle,
                               DynamicPowerModel dynamic,
                               sim::VfTable vf_table)
    : idle_(std::move(idle)), dynamic_(std::move(dynamic)),
      vf_table_(std::move(vf_table))
{
}

bool
ChipPowerModel::trained() const
{
    return idle_.trained() && dynamic_.trained();
}

PowerEstimate
ChipPowerModel::estimate(const trace::IntervalRecord &rec) const
{
    PPEP_ASSERT(trained(), "chip power model not trained");
    PPEP_ASSERT(!rec.cu_vf.empty(), "record has no VF context");
    // Global DVFS during model work: all CUs share one requested state.
    const sim::VfState &vf = vf_table_.state(rec.cu_vf.front());

    PowerEstimate est;
    est.idle_w = idle_.predict(vf.voltage, rec.diode_temp_k);
    for (const auto &core : rec.pmc) {
        const auto rates = powerEventRates(core, rec.duration_s);
        double core_w = 0.0, nb_w = 0.0;
        dynamic_.split(rates, vf.voltage, core_w, nb_w);
        est.dyn_core_w += core_w;
        est.dyn_nb_w += nb_w;
    }
    est.dynamic_w = est.dyn_core_w + est.dyn_nb_w;
    est.total_w = est.idle_w + est.dynamic_w;
    return est;
}

PowerEstimate
ChipPowerModel::predictAt(const trace::IntervalRecord &rec,
                          std::size_t target_vf) const
{
    PPEP_ASSERT(trained(), "chip power model not trained");
    PPEP_ASSERT(!rec.cu_vf.empty(), "record has no VF context");
    const sim::VfState &now = vf_table_.state(rec.cu_vf.front());
    const sim::VfState &then = vf_table_.state(target_vf);

    PowerEstimate est;
    est.idle_w = idle_.predict(then.voltage, rec.diode_temp_k);
    for (const auto &core : rec.pmc) {
        const PredictedCoreState pred = EventPredictor::predict(
            core, rec.duration_s, now.freq_ghz, then.freq_ghz);
        // Eq. 3 prices the E1..E9 prefix of the predicted rates.
        std::array<double, sim::kNumPowerEvents> rates{};
        std::copy_n(pred.rates_per_s.begin(), sim::kNumPowerEvents,
                    rates.begin());
        double core_w = 0.0, nb_w = 0.0;
        dynamic_.split(rates, then.voltage, core_w, nb_w);
        est.dyn_core_w += core_w;
        est.dyn_nb_w += nb_w;
    }
    est.dynamic_w = est.dyn_core_w + est.dyn_nb_w;
    est.total_w = est.idle_w + est.dynamic_w;
    return est;
}

} // namespace ppep::model
