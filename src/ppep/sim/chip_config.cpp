#include "ppep/sim/chip_config.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::sim {

void
ChipConfig::validate() const
{
    PPEP_ASSERT(n_cus >= 1 && cores_per_cu >= 1, "empty topology");
    PPEP_ASSERT(issue_width >= 1.0, "issue width must be >= 1");
    PPEP_ASSERT(mispredict_penalty >= 0.0, "negative mispredict penalty");
    PPEP_ASSERT(tick_s > 0.0, "tick must be positive");
    PPEP_ASSERT(ticks_per_interval >= 1, "need at least one tick/interval");
    PPEP_ASSERT(pmc_counters >= 1, "need at least one PMC counter");
    PPEP_ASSERT(power.alpha_true > 0.0, "alpha must be positive");
    PPEP_ASSERT(power.pg_residual >= 0.0 && power.pg_residual <= 1.0,
                "pg_residual out of [0,1]");
    PPEP_ASSERT(thermal.resistance_k_per_w > 0.0 &&
                thermal.time_constant_s > 0.0,
                "thermal parameters must be positive");
    PPEP_ASSERT(nb.dram_bw_gbs > 0.0, "DRAM bandwidth must be positive");
    PPEP_ASSERT(nb.max_utilization > 0.0 && nb.max_utilization < 1.0,
                "utilisation cap out of (0,1)");
    // The NB solve relies on DRAM demand never rising with utilisation.
    PPEP_ASSERT(nb.mlp_collapse >= 0.0, "negative MLP collapse");
    PPEP_ASSERT(nb.line_bytes > 0.0, "cache line size must be positive");
    PPEP_ASSERT(nb.l3_latency_cycles >= 0.0 &&
                nb.mc_latency_cycles >= 0.0 && nb.dram_fixed_ns >= 0.0,
                "negative NB latency");
    for (double e : power.event_energy_nj)
        PPEP_ASSERT(e >= 0.0, "negative event energy");
    double prev_f = vf_table.state(vf_table.top()).freq_ghz;
    double prev_v = vf_table.state(vf_table.top()).voltage;
    for (const auto &b : boost_states) {
        PPEP_ASSERT(b.freq_ghz > prev_f && b.voltage >= prev_v,
                    "boost states must ascend above the top P-state");
        prev_f = b.freq_ghz;
        prev_v = b.voltage;
    }
}

ChipConfig
fx8320Config()
{
    ChipConfig cfg;
    cfg.name = "AMD FX-8320 (simulated)";
    cfg.n_cus = 4;
    cfg.cores_per_cu = 2;
    cfg.issue_width = 4.0;
    cfg.mispredict_penalty = 20.0;
    cfg.vf_table = fx8320VfTable();
    cfg.pg_supported = true;

    // Per-event energies (nJ at 1.320 V): E1 uop, E2 FPU op, E3 I-fetch,
    // E4 D-access, E5 L2 request, E6 branch, E7 mispredicted branch
    // (recovery energy), E8 L2 miss (core-side MAB cost only; the L3/DRAM
    // cost is NB-side, below), E9 dispatch-stall cycle (latch clocking
    // while stalled). Calibrated so a CPU-heavy core draws ~12-14 W of
    // switched power at the top state — a Piledriver-class budget that,
    // together with leakage-heavy CU statics and a modest uncore floor,
    // reproduces the paper's Fig. 8 energy shapes (lowest VF state =
    // lowest energy).
    cfg.power.event_energy_nj = {1.2, 2.2, 0.9, 1.2, 5.5,
                                 0.7, 16.0, 3.6, 0.2};
    cfg.power.alpha_true = 2.3;
    cfg.power.busy_cycle_energy_nj = 1.1;
    cfg.power.cu_clock_coeff = 0.30;
    cfg.power.cu_leak_ref_w = 5.8;
    cfg.power.leak_volt_k = 4.0;
    cfg.power.leak_temp_k = 0.014;
    cfg.power.leak_temp_ref_k = 320.0;
    cfg.power.nb_leak_ref_w = 2.4;
    cfg.power.nb_clock_coeff = 0.82;
    cfg.power.l3_access_energy_nj = 12.0;
    cfg.power.dram_access_energy_nj = 45.0;
    cfg.power.base_power_w = 0.6;
    cfg.power.pg_residual = 0.03;
    cfg.power.housekeeping_w = 0.4;
    cfg.power.phase_activity_sd = 0.070;

    // Reproduce the paper's Observation-1 deltas (VF5 vs VF2 per-inst
    // count differences of 0.6/0.9/0.7/5.0/0.7/1.3/4.0/~2 percent for
    // E1..E8): delta = sens * (3.5-1.7)/3.5 = 0.514 * sens.
    cfg.event_freq_sens = {0.012, 0.018, 0.014, 0.097, 0.014,
                           0.025, 0.078, 0.039, 0.0};

    cfg.validate();
    return cfg;
}

ChipConfig
fx8320ConfigWithBoost()
{
    ChipConfig cfg = fx8320Config();
    cfg.name = "AMD FX-8320 (simulated, boost enabled)";
    // Two hardware boost points above VF5 (1.320 V, 3.5 GHz): the
    // FX-8320's all-but-idle 3.8 GHz step and its 4.0 GHz max turbo.
    cfg.boost_states = {{1.3875, 3.8}, {1.4250, 4.0}};
    cfg.boost_temp_limit_k = 330.0;
    cfg.boost_max_busy_cus = 2;
    cfg.validate();
    return cfg;
}

ChipConfig
fx8320NbDvfsConfig()
{
    ChipConfig cfg = fx8320Config();
    cfg.name = "AMD FX-8320 (simulated, NB-DVFS)";
    cfg.nb_dvfs_capable = true;
    cfg.validate();
    return cfg;
}

ChipConfig
phenomIIConfig()
{
    ChipConfig cfg;
    cfg.name = "AMD Phenom II X6 1090T (simulated)";
    // Six independent cores: model as six single-core CUs.
    cfg.n_cus = 6;
    cfg.cores_per_cu = 1;
    cfg.issue_width = 3.0;
    cfg.mispredict_penalty = 15.0;
    cfg.vf_table = phenomIIVfTable();
    cfg.pg_supported = false; // Sec. II: the 1090T has no power gating.

    // 45 nm part: higher per-op energy, lower leakage sensitivity than
    // the 32 nm FX-8320, single-core "CUs" with smaller uncore share.
    cfg.power.event_energy_nj = {1.4, 2.6, 1.1, 1.4, 6.3,
                                 0.8, 18.0, 4.2, 0.24};
    cfg.power.alpha_true = 2.1;
    cfg.power.busy_cycle_energy_nj = 1.3;
    cfg.power.cu_clock_coeff = 0.28;
    cfg.power.cu_leak_ref_w = 3.8;
    cfg.power.leak_volt_k = 3.2;
    cfg.power.leak_temp_k = 0.011;
    cfg.power.leak_temp_ref_k = 320.0;
    cfg.power.nb_leak_ref_w = 2.0;
    cfg.power.nb_clock_coeff = 0.85;
    // The 1090T NB runs at 2.0 GHz.
    cfg.nb.vf_hi = {1.150, 2.0};
    cfg.nb.vf_lo = {0.920, 1.0};
    cfg.power.l3_access_energy_nj = 13.0;
    cfg.power.dram_access_energy_nj = 48.0;
    cfg.power.base_power_w = 0.7;
    cfg.power.pg_residual = 1.0; // no gating: residual never applies
    cfg.power.housekeeping_w = 0.45;
    cfg.power.phase_activity_sd = 0.045;

    cfg.event_freq_sens = {0.010, 0.015, 0.012, 0.080, 0.012,
                           0.022, 0.065, 0.032, 0.0};

    cfg.validate();
    return cfg;
}

} // namespace ppep::sim
