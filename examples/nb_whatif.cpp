/**
 * @file
 * NB-DVFS what-if study (the paper's Sec. V-C2 use case).
 *
 * Evaluates how much energy a hypothetical low NB operating point
 * (0.940 V, 1.1 GHz: NB idle -40%, NB dynamic -36%, leading-load cycles
 * +50%) would unlock for a benchmark, and how much faster the cores
 * could run at similar energy — the paper's argument for scalable
 * north bridges.
 *
 * Usage: nb_whatif [benchmark] [instances]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "ppep/governor/energy_explorer.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace ppep;
    const std::string program = argc > 1 ? argv[1] : "458.sjeng";
    const std::size_t copies =
        argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 1;
    if (!workloads::Suite::exists(program)) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", program.c_str());
        return 1;
    }

    const auto cfg = sim::fx8320Config();
    std::printf("Training PPEP models (one-time offline step)...\n");
    model::Trainer trainer(cfg, 42);
    const auto models =
        trainer.trainAll(workloads::singleProgramCombinations());
    const model::Ppep ppep(cfg, models.chip, models.pg);

    const governor::EnergyExplorer explorer(cfg, ppep, 7);
    const auto &f = explorer.factors();
    std::printf("Assumed NB VF_lo (0.940 V, 1.1 GHz): idle x%.2f, "
                "dynamic x%.2f, leading-load cycles x%.2f\n\n",
                f.idle_scale, f.dynamic_scale, f.mcpi_scale);

    const auto points = explorer.explore(program, copies,
                                         /*include_nb_low=*/true);

    util::Table table("Predicted per-thread space, " + program + " x" +
                      std::to_string(copies) + ":");
    table.setHeader({"core VF", "NB state", "time (s)", "energy (J)",
                     "EDP (J*s)"});
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
        table.addRow({cfg.vf_table.name(it->vf_index),
                      it->nb_low ? "VF_lo" : "VF_hi",
                      util::Table::num(it->time_s, 2),
                      util::Table::num(it->energy_j, 1),
                      util::Table::num(it->edp, 1)});
    }
    table.print(std::cout);

    const auto summary = governor::EnergyExplorer::summarize(points);
    std::printf("\nExtra energy saving from NB scaling: %.1f%%\n",
                summary.energy_saving * 100.0);
    std::printf("Speedup at similar energy (vs core-VF1 + NB-hi): "
                "%.2fx\n",
                summary.speedup);
    return 0;
}
