#include "ppep/sim/hw_power_model.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

double
PowerBreakdown::cuIdleTotal() const PPEP_NONBLOCKING
{
    double s = 0.0;
    for (double w : cu_idle)
        s += w;
    return s;
}

double
PowerBreakdown::coreDynamicTotal() const PPEP_NONBLOCKING
{
    double s = 0.0;
    for (double w : core_dynamic)
        s += w;
    return s;
}

HwPowerModel::HwPowerModel(const ChipConfig &cfg)
    : cfg_(cfg),
      vref_(cfg.vf_table.state(cfg.vf_table.top()).voltage),
      nb_vref_(cfg.nb.vf_hi.voltage)
{
}

double
HwPowerModel::dynScale(double voltage) const PPEP_NONBLOCKING
{
    return std::pow(voltage / vref_, cfg_.power.alpha_true);
}

double
HwPowerModel::cuIdlePower(double voltage, double freq_ghz,
                          double temp_k) const PPEP_NONBLOCKING
{
    const auto &p = cfg_.power;
    const double leak = p.cu_leak_ref_w *
                        std::exp(p.leak_volt_k * (voltage - vref_)) *
                        std::exp(p.leak_temp_k *
                                 (temp_k - p.leak_temp_ref_k));
    const double clock = p.cu_clock_coeff * freq_ghz * voltage * voltage;
    return leak + clock;
}

double
HwPowerModel::nbStaticPower(const VfState &nb_vf, double temp_k) const PPEP_NONBLOCKING
{
    const auto &p = cfg_.power;
    const double leak = p.nb_leak_ref_w *
                        std::exp(p.leak_volt_k *
                                 (nb_vf.voltage - nb_vref_)) *
                        std::exp(p.leak_temp_k *
                                 (temp_k - p.leak_temp_ref_k));
    const double clock =
        p.nb_clock_coeff * nb_vf.freq_ghz * nb_vf.voltage * nb_vf.voltage;
    return leak + clock;
}

void
HwPowerModel::computeInto(const std::vector<CorePowerInput> &cores,
                          const std::vector<bool> &cu_gated,
                          bool nb_gated,
                          const std::vector<double> &cu_voltage,
                          const std::vector<double> &cu_freq_ghz,
                          const VfState &nb_vf, double temp_k,
                          double dt_s, PowerBreakdown &out) const
    PPEP_NONBLOCKING
{
    PPEP_ASSERT(cores.size() == cfg_.coreCount(), "core count mismatch");
    PPEP_ASSERT(cu_gated.size() == cfg_.n_cus &&
                cu_voltage.size() == cfg_.n_cus &&
                cu_freq_ghz.size() == cfg_.n_cus,
                "CU vector size mismatch");
    PPEP_ASSERT(out.cu_idle.size() == cfg_.n_cus &&
                out.core_dynamic.size() == cores.size(),
                "breakdown not sized for this chip");
    PPEP_ASSERT(dt_s > 0.0, "non-positive tick");

    const auto &p = cfg_.power;
    out.base = p.base_power_w;

    // Per-CU idle (leakage + clock tree), with the gate applied.
    bool any_cu_alive = false;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu) {
        const double full =
            cuIdlePower(cu_voltage[cu], cu_freq_ghz[cu], temp_k);
        out.cu_idle[cu] = cu_gated[cu] ? full * p.pg_residual : full;
        any_cu_alive = any_cu_alive || !cu_gated[cu];
    }

    // OS housekeeping runs whenever at least one CU is clocked.
    out.housekeeping = any_cu_alive ? p.housekeeping_w : 0.0;

    // NB static, gated only when every CU is gated.
    const double nb_full = nbStaticPower(nb_vf, temp_k);
    out.nb_static = nb_gated ? nb_full * p.pg_residual : nb_full;

    // Per-core switched energy + NB access energy; an idle core draws
    // none.
    std::fill(out.core_dynamic.begin(), out.core_dynamic.end(), 0.0);
    double l3_rate = 0.0;
    double dram_rate = 0.0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const auto &in = cores[c];
        PPEP_ASSERT(in.activity != nullptr, "null core activity");
        const auto &act = *in.activity;
        if (!act.busy)
            continue;

        // Clock-spine energy on *productive* cycles only: stalled
        // pipeline stages are clock gated on modern cores, so stall
        // cycles burn (almost) no extra clock power. This also keeps
        // the quantity inside the span of Eq. 3's regressors (retiring
        // + discarded cycles are linear in E1/E7 via Eq. 5).
        const double active_cycles = std::max(
            0.0,
            act.cycles - act.events[eventIndex(Event::DispatchStall)]);
        double energy_nj = active_cycles * p.busy_cycle_energy_nj;
        for (std::size_t i = 0; i < kNumPowerEvents; ++i)
            energy_nj += act.events[i] * p.event_energy_nj[i];
        out.core_dynamic[c] = energy_nj * 1e-9 / dt_s *
                              dynScale(in.voltage) * in.activity_factor;

        l3_rate += act.l3_accesses / dt_s;
        dram_rate += act.dram_accesses / dt_s;
    }

    // NB dynamic: per-access energies at the NB voltage (quadratic — the
    // source of the paper's "-36% NB dynamic at -20% voltage" what-if).
    const double nb_vscale =
        (nb_vf.voltage / nb_vref_) * (nb_vf.voltage / nb_vref_);
    out.nb_dynamic = (l3_rate * p.l3_access_energy_nj +
                      dram_rate * p.dram_access_energy_nj) *
                     1e-9 * nb_vscale;

    out.total = out.base + out.housekeeping + out.nb_static +
                out.nb_dynamic + out.cuIdleTotal() +
                out.coreDynamicTotal();
}

} // namespace ppep::sim
