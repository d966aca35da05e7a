#include "capping_odometer.hpp"

#include <algorithm>
#include <array>

#include "ppep/model/event_predictor.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::oracle {

CappingOdometer::CappingOdometer(const sim::ChipConfig &cfg,
                                 const model::Ppep &ppep,
                                 double guard_band)
    : cfg_(cfg), ppep_(ppep), guard_band_(guard_band)
{
    PPEP_ASSERT(ppep_.pgModel().trained(),
                "PPEP capping needs the PG idle decomposition");
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const std::size_t n_vf = cfg_.vf_table.size();
    vscale_by_vf_.resize(n_vf);
    for (std::size_t vf = 0; vf < n_vf; ++vf)
        vscale_by_vf_[vf] =
            dyn_model.voltageScale(cfg_.vf_table.state(vf).voltage);
}

void
CappingOdometer::decideInto(const trace::IntervalRecord &rec,
                            double cap_w, std::vector<std::size_t> &out)
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const std::size_t n_cores = cfg_.coreCount();
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const double v_train = dyn_model.trainingVoltage();

    // Per core and per VF: predicted ips, core-event dynamic power at
    // the training voltage, and the (never voltage-scaled) NB part.
    ips_.assign(n_cores * n_vf, 0.0);
    core_base_.assign(n_cores * n_vf, 0.0);
    nb_part_.assign(n_cores * n_vf, 0.0);
    busy_per_cu_.assign(cfg_.n_cus, 0);
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const double f_now =
            cfg_.vf_table.state(rec.cu_vf[cu]).freq_ghz;
        const auto obs = model::EventPredictor::observe(
            rec.pmc[c], rec.duration_s, f_now);
        bool busy = false;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            const sim::VfState &target = cfg_.vf_table.state(vf);
            const auto pred =
                model::EventPredictor::predictAt(obs, target.freq_ghz);
            ips_[c * n_vf + vf] = pred.rates_per_s[sim::eventIndex(
                sim::Event::RetiredInst)];
            std::array<double, sim::kNumPowerEvents> rates{};
            for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
                rates[i] = pred.rates_per_s[i];
            dyn_model.split(rates, v_train, core_base_[c * n_vf + vf],
                            nb_part_[c * n_vf + vf]);
            busy = busy || pred.ips > 0.0;
        }
        if (busy)
            ++busy_per_cu_[cu];
    }

    const double budget = cap_w * (1.0 - guard_band_);
    const auto &pg = ppep_.pgModel();

    // Enumerate all n_vf^n_cus per-CU assignments and keep the first
    // feasible one with the highest predicted throughput; fall back to
    // all-lowest if nothing fits. A shared rail runs every CU at the
    // highest voltage any busy CU requests.
    out.assign(cfg_.n_cus, 0);
    double best_ips = -1.0;
    double best_power = std::numeric_limits<double>::quiet_NaN();
    double all_lowest_power = std::numeric_limits<double>::quiet_NaN();
    assign_.assign(cfg_.n_cus, 0);
    bool first_assignment = true;
    while (true) {
        std::size_t max_idx = 0;
        if (!cfg_.per_cu_voltage) {
            for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
                if (busy_per_cu_[cu] > 0)
                    max_idx = std::max(max_idx, assign_[cu]);
        }

        double total_dyn = 0.0;
        double total_ips = 0.0;
        for (std::size_t c = 0; c < n_cores; ++c) {
            const std::size_t cu = c / cfg_.cores_per_cu;
            const std::size_t vf = assign_[cu];
            const double vscale =
                vscale_by_vf_[cfg_.per_cu_voltage ? vf : max_idx];
            total_dyn += core_base_[c * n_vf + vf] * vscale +
                         nb_part_[c * n_vf + vf];
            total_ips += ips_[c * n_vf + vf];
        }

        double idle = 0.0;
        if (cfg_.per_cu_voltage) {
            idle = pg.chipIdleMixed(assign_, busy_per_cu_, true);
        } else {
            priced_.assign(assign_.begin(), assign_.end());
            for (auto &vf : priced_)
                vf = std::max(vf, max_idx);
            idle = pg.chipIdleMixed(priced_, busy_per_cu_, true);
        }

        const double power = idle + total_dyn;
        if (first_assignment) {
            all_lowest_power = power;
            first_assignment = false;
        }
        if (power <= budget && total_ips > best_ips) {
            best_ips = total_ips;
            out.assign(assign_.begin(), assign_.end());
            best_power = power;
        }

        std::size_t pos = 0;
        while (pos < cfg_.n_cus) {
            if (++assign_[pos] < n_vf)
                break;
            assign_[pos] = 0;
            ++pos;
        }
        if (pos == cfg_.n_cus)
            break;
    }
    last_predicted_power_w_ =
        best_ips >= 0.0 ? best_power : all_lowest_power;
}

} // namespace ppep::oracle
