#include "ppep/governor/coscale_lite.hpp"

#include <limits>

#include "ppep/model/event_predictor.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::governor {

CoScaleLiteGovernor::CoScaleLiteGovernor(const sim::ChipConfig &cfg,
                                         const model::Ppep &ppep,
                                         double max_slowdown)
    : cfg_(cfg), ppep_(ppep), max_slowdown_(max_slowdown)
{
    PPEP_ASSERT(max_slowdown_ >= 0.0 && max_slowdown_ < 1.0,
                "slowdown budget out of [0,1)");
    PPEP_ASSERT(ppep_.pgModel().trained(),
                "CoScale-lite needs the PG idle decomposition");
}

std::vector<std::size_t>
CoScaleLiteGovernor::decide(const trace::IntervalRecord &rec,
                            double cap_w)
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const auto &pg = ppep_.pgModel();

    // Whether the *measurement* interval already ran on the low NB
    // point: its leading-load cycles then carry the 1.5x factor, which
    // must not be double counted when predicting.
    const bool measured_lo =
        rec.nb_vf.freq_ghz < cfg_.nb.vf_hi.freq_ghz * 0.99;
    const double measured_factor =
        measured_lo ? factors_.mcpi_scale : 1.0;

    // Busy topology for the idle split.
    std::vector<std::size_t> busy_per_cu(cfg_.n_cus, 0);
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        if (rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)] > 0.0)
            ++busy_per_cu[c / cfg_.cores_per_cu];
    }
    bool any_busy = false;
    for (std::size_t b : busy_per_cu)
        any_busy = any_busy || b > 0;
    if (!any_busy) {
        nb_low_ = false;
        return std::vector<std::size_t>(cfg_.n_cus, 0);
    }

    struct Config
    {
        std::size_t vf;
        bool nb_low;
        double power_w;
        double ips;
    };
    std::vector<Config> configs;
    for (const bool nb_low : {false, true}) {
        const double target_factor =
            nb_low ? factors_.mcpi_scale : 1.0;
        const double mcpi_scale = target_factor / measured_factor;
        const double nb_dyn_scale =
            nb_low ? factors_.dynamic_scale : 1.0;
        const double nb_idle_scale =
            nb_low ? factors_.idle_scale : 1.0;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            const sim::VfState &state = cfg_.vf_table.state(vf);
            double dyn = 0.0, ips = 0.0;
            for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
                const std::size_t cu = c / cfg_.cores_per_cu;
                const double f_now =
                    cfg_.vf_table.state(rec.cu_vf[cu]).freq_ghz;
                const auto pred = model::EventPredictor::predict(
                    rec.pmc[c], rec.duration_s, f_now, state.freq_ghz,
                    mcpi_scale);
                if (pred.ips <= 0.0)
                    continue;
                std::array<double, sim::kNumPowerEvents> rates{};
                for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
                    rates[i] = pred.rates_per_s[i];
                double core_w = 0.0, nb_w = 0.0;
                dyn_model.split(rates, state.voltage, core_w, nb_w);
                dyn += core_w + nb_w * nb_dyn_scale;
                ips += pred.rates_per_s[sim::eventIndex(
                    sim::Event::RetiredInst)];
            }
            const auto &comp = pg.components(vf);
            double idle = comp.p_base;
            for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
                if (busy_per_cu[cu] > 0)
                    idle += comp.p_cu;
            idle += comp.p_nb * nb_idle_scale;
            configs.push_back({vf, nb_low, idle + dyn, ips});
        }
    }

    // CoScale's contract: minimise energy subject to staying within a
    // slowdown budget of the fastest configuration (and under any cap).
    double ips_ref = 0.0;
    for (const auto &c : configs)
        ips_ref = std::max(ips_ref, c.ips);
    const double ips_floor = ips_ref * (1.0 - max_slowdown_);

    const Config *best = nullptr;
    double best_epi = std::numeric_limits<double>::max();
    for (const auto &c : configs) {
        if (c.ips < ips_floor || c.ips <= 0.0 || c.power_w > cap_w)
            continue;
        const double epi = c.power_w / c.ips;
        if (epi < best_epi) {
            best_epi = epi;
            best = &c;
        }
    }
    if (!best) {
        // Nothing satisfies both constraints: run flat out (the
        // performance contract outranks energy).
        for (const auto &c : configs)
            if (!best || c.ips > best->ips)
                best = &c;
    }

    nb_low_ = best->nb_low;
    return std::vector<std::size_t>(cfg_.n_cus, best->vf);
}

std::optional<sim::VfState>
CoScaleLiteGovernor::decideNb() PPEP_NONBLOCKING
{
    return nb_low_ ? cfg_.nb.vf_lo : cfg_.nb.vf_hi;
}

} // namespace ppep::governor
