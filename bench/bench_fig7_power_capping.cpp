/**
 * @file
 * Fig. 7: power-capping responsiveness — the PPEP one-step policy vs
 * the simple iterative baseline on the paper's workload mix
 * (429.mcf + 458.sjeng + 416.gamess + swaptions, one per CU) under a
 * square-wave power cap.
 *
 * Paper: PPEP adjusts within a single 0.2 s interval and adheres to the
 * budget 94% of the time; the iterative policy takes 2.8 s (14x slower)
 * and adheres 81% of the time with occasional violations.
 */

#include "bench_common.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/governor/iterative_capping.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/util/csv.hpp"

namespace {

using namespace ppep;

sim::Chip
makeLoadedChip(const sim::ChipConfig &cfg)
{
    sim::Chip chip(cfg, bench::kSeed + 7);
    chip.setPowerGatingEnabled(true);
    chip.setJob(0, workloads::Suite::byName("429.mcf").makeLoopingJob());
    chip.setJob(2,
                workloads::Suite::byName("458.sjeng").makeLoopingJob());
    chip.setJob(4,
                workloads::Suite::byName("416.gamess").makeLoopingJob());
    chip.setJob(6,
                workloads::Suite::byName("swaptions").makeLoopingJob());
    return chip;
}

} // namespace

int
main()
{
    using namespace ppep;
    bench::header(
        "Fig. 7: power capping responsiveness (mcf+sjeng+gamess+"
        "swaptions on 4 CUs)",
        "paper Fig. 7 / Sec. V-B: PPEP settles in 1 interval with 94% "
        "adherence; iterative takes 2.8s (14 intervals) with 81%");

    // Per-CU voltage planes, as the paper assumes for this study.
    auto cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;

    model::Trainer trainer(cfg, bench::kSeed);
    const auto models =
        trainer.trainAll(workloads::singleProgramCombinations());
    const model::Ppep ppep(cfg, models.chip, models.pg);

    // A large square-wave cap swing, as in the paper's demonstration.
    const governor::CapSchedule swing({{0, 110.0},
                                       {60, 45.0},
                                       {150, 110.0},
                                       {240, 45.0}});
    const std::size_t n_intervals = 330;

    governor::IterativeCappingGovernor iterative(cfg);
    auto chip_i = makeLoadedChip(cfg);
    governor::GovernorLoop loop_i(chip_i, iterative);
    const auto steps_i = loop_i.run(n_intervals, swing);

    governor::PpepCappingGovernor predictive(cfg, ppep);
    auto chip_p = makeLoadedChip(cfg);
    governor::GovernorLoop loop_p(chip_p, predictive);
    const auto steps_p = loop_p.run(n_intervals, swing);

    // Dump both traces for plotting.
    util::CsvWriter csv("fig7_power_capping.csv");
    csv.writeRow(std::vector<std::string>{
        "step", "cap_w", "iterative_w", "ppep_w"});
    for (std::size_t i = 0; i < n_intervals; ++i) {
        csv.writeRow(std::vector<double>{
            static_cast<double>(i), steps_p[i].cap_w,
            steps_i[i].rec.sensor_power_w,
            steps_p[i].rec.sensor_power_w});
    }

    util::Table trace("\nTrace excerpt around the first cap drop "
                      "(interval 60; full trace in "
                      "fig7_power_capping.csv):");
    trace.setHeader({"step", "cap (W)", "iterative (W)", "PPEP (W)"});
    for (std::size_t i = 55; i < 80; ++i) {
        trace.addRow({std::to_string(i),
                      util::Table::num(steps_p[i].cap_w, 0),
                      util::Table::num(steps_i[i].rec.sensor_power_w, 1),
                      util::Table::num(steps_p[i].rec.sensor_power_w,
                                       1)});
    }
    trace.print(std::cout);

    const double settle_i = governor::meanSettleIntervals(steps_i);
    const double settle_p = governor::meanSettleIntervals(steps_p);
    const double adh_i = governor::capAdherence(steps_i);
    const double adh_p = governor::capAdherence(steps_p);

    util::Table summary("\nSummary:");
    summary.setHeader({"policy", "settle (intervals)", "settle (s)",
                       "adherence", "paper"});
    summary.addRow({"PPEP one-step", util::Table::num(settle_p, 1),
                    util::Table::num(settle_p * 0.2, 1),
                    util::Table::pct(adh_p), "0.2s, 94%"});
    summary.addRow({"simple iterative", util::Table::num(settle_i, 1),
                    util::Table::num(settle_i * 0.2, 1),
                    util::Table::pct(adh_i), "2.8s, 81%"});
    summary.print(std::cout);

    std::printf("\nSpeed ratio (iterative/PPEP settle): %.1fx "
                "(paper: 14x)\n",
                settle_p > 0.0 ? settle_i / settle_p : 0.0);
    std::printf("PPEP faster and more adherent: %s\n",
                (settle_p < settle_i && adh_p > adh_i)
                    ? "reproduced"
                    : "NOT reproduced");
    return 0;
}
