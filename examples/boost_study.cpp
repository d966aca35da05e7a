/**
 * @file
 * Firmware boost control with PPEP (the paper's Sec. IV-E suggestion:
 * "If implemented in firmware, PPEP can also be used to control
 * hardware boost states").
 *
 * A lone CPU-bound thread runs under three policies:
 *   - no boost: pinned at VF5 (the paper's experimental setting);
 *   - greedy boost: always request max turbo, let the hardware's
 *     busy-CU/temperature heuristic sort it out;
 *   - PPEP boost: each interval, predict the power every boost state
 *     would draw and request the fastest one whose *predicted* chip
 *     power fits a TDP budget — boost as a single-step decision rather
 *     than an oscillating reaction.
 *
 * Usage: boost_study [tdp_w] [intervals]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "ppep/model/event_predictor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/stats.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

struct RunResult
{
    double mips = 0.0;
    double avg_power = 0.0;
    double max_power = 0.0;
    std::size_t boosted_intervals = 0;
};

/** Run one policy for @p intervals and summarise. */
template <typename DecideFn>
RunResult
run(const sim::ChipConfig &cfg, DecideFn decide, std::size_t intervals)
{
    sim::Chip chip(cfg, 321);
    chip.setPowerGatingEnabled(true);
    chip.setJob(0, workloads::Suite::byName("458.sjeng")
                       .makeLoopingJob());
    chip.setTemperatureK(cfg.thermal.ambient_k + 20.0);
    trace::Collector col(chip);

    RunResult out;
    util::RunningStats power;
    double inst = 0.0;
    for (std::size_t i = 0; i < intervals; ++i) {
        const auto rec = col.collectInterval();
        power.add(rec.sensor_power_w);
        inst += rec.pmcTotal(sim::Event::RetiredInst);
        if (chip.grantedVf(0) >= cfg.vf_table.size())
            ++out.boosted_intervals;
        chip.setAllVf(decide(chip, rec));
    }
    out.mips = inst / (static_cast<double>(intervals) * 0.2) / 1e6;
    out.avg_power = power.mean();
    out.max_power = power.maxValue();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const double tdp = argc > 1 ? std::stod(argv[1]) : 42.0;
    const std::size_t intervals =
        argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 120;

    const auto cfg = sim::fx8320ConfigWithBoost();
    std::printf("Platform: %s (boost states: 3.8, 4.0 GHz)\n",
                cfg.name.c_str());
    std::printf("TDP budget for the PPEP policy: %.0f W\n\n", tdp);

    std::printf("Training PPEP models...\n");
    model::Trainer trainer(cfg, 42);
    const auto models =
        trainer.trainAll(workloads::singleProgramCombinations());

    // Policy 1: the paper's setting — boost disabled, pinned at VF5.
    const auto no_boost = run(
        cfg,
        [&](sim::Chip &, const trace::IntervalRecord &) {
            return cfg.vf_table.top();
        },
        intervals);

    // Policy 2: greedy — always ask for max turbo.
    const auto greedy = run(
        cfg,
        [&](sim::Chip &chip, const trace::IntervalRecord &) {
            return chip.stateCount() - 1;
        },
        intervals);

    // Policy 3: PPEP firmware — predict each boost state's power from
    // this interval's counters; request the fastest state that fits.
    const auto &pg = models.pg;
    const double v_top = cfg.vf_table.maxVoltage();
    const auto ppep_boost = run(
        cfg,
        [&](sim::Chip &chip, const trace::IntervalRecord &rec) {
            const double f_now =
                chip.stateOf(chip.grantedVf(0)).freq_ghz;
            std::size_t best = cfg.vf_table.top();
            for (std::size_t s = chip.stateCount(); s-- > 0;) {
                const auto &state = chip.stateOf(s);
                double dyn = 0.0;
                for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
                    const auto pred = model::EventPredictor::predict(
                        rec.pmc[c], rec.duration_s, f_now,
                        state.freq_ghz);
                    std::array<double, sim::kNumPowerEvents> rates{};
                    for (std::size_t i = 0;
                         i < sim::kNumPowerEvents; ++i)
                        rates[i] = pred.rates_per_s[i];
                    dyn += models.dynamic.estimate(rates,
                                                   state.voltage);
                }
                // PG-aware idle: one busy CU + NB + base; the busy
                // CU's idle power scales ~V^2 into the boost range,
                // which lies just beyond the Fig. 4 training points.
                const double vscale =
                    (state.voltage / v_top) * (state.voltage / v_top);
                const double idle =
                    pg.components(cfg.vf_table.top()).p_cu * vscale *
                        state.freq_ghz / 3.5 +
                    pg.pNbAvg() + pg.pBaseAvg();
                if (idle + dyn <= tdp) {
                    best = s;
                    break; // states scanned fastest-first
                }
            }
            return best;
        },
        intervals);

    util::Table table("Results (458.sjeng x1, " +
                      std::to_string(intervals) + " intervals):");
    table.setHeader({"policy", "MIPS", "avg power (W)", "max power (W)",
                     "boosted intervals"});
    auto row = [&](const char *name, const RunResult &r) {
        table.addRow({name, util::Table::num(r.mips, 0),
                      util::Table::num(r.avg_power, 1),
                      util::Table::num(r.max_power, 1),
                      std::to_string(r.boosted_intervals)});
    };
    row("no boost (paper setting)", no_boost);
    row("greedy hardware boost", greedy);
    row("PPEP firmware boost", ppep_boost);
    table.print(std::cout);

    std::printf("\nPPEP boost gained %.1f%% throughput over no-boost "
                "while predicting its power budget in a single step.\n",
                100.0 * (ppep_boost.mips / no_boost.mips - 1.0));
    return 0;
}
