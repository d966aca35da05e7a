/**
 * @file
 * Energy/EDP space exploration demo (the paper's Sec. V-C1 use case).
 *
 * Measures a benchmark once at the top VF state, then uses PPEP to
 * predict per-thread energy, runtime, EDP, and the core/NB energy split
 * at every VF state — and recommends the energy- and EDP-optimal
 * operating points, all without ever running at those states.
 *
 * Usage: energy_explorer_demo [benchmark] [instances]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "ppep/governor/energy_explorer.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace ppep;
    const std::string program = argc > 1 ? argv[1] : "433.milc";
    const std::size_t copies =
        argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 2;
    if (!workloads::Suite::exists(program)) {
        std::fprintf(stderr, "unknown benchmark '%s'; try one of:\n",
                     program.c_str());
        for (const auto &p : workloads::Suite::all())
            std::fprintf(stderr, "  %s\n", p.name.c_str());
        return 1;
    }

    const auto cfg = sim::fx8320Config();
    runtime::ModelStore store;
    bool cached = false;
    const auto models = store.trainOrLoad(
        cfg, 42, workloads::singleProgramCombinations(), &cached);
    std::printf(cached
                    ? "Loaded cached PPEP models.\n"
                    : "Trained PPEP models (one-time offline step, now "
                      "cached).\n");
    const model::Ppep ppep(cfg, models.chip, models.pg);

    const governor::EnergyExplorer explorer(cfg, ppep, 7);
    std::printf("Measuring %s x%zu at VF5, then predicting the rest of "
                "the space...\n",
                program.c_str(), copies);
    const auto points = explorer.explore(program, copies);

    util::Table table("\nPredicted per-thread operating space:");
    table.setHeader({"VF", "V", "GHz", "time (s)", "energy (J)",
                     "core (J)", "NB (J)", "EDP (J*s)"});
    std::size_t best_e = 0, best_edp = 0;
    for (const auto &p : points) {
        if (p.energy_j < points[best_e].energy_j)
            best_e = p.vf_index;
        if (p.edp < points[best_edp].edp)
            best_edp = p.vf_index;
    }
    for (auto it = points.rbegin(); it != points.rend(); ++it) {
        const auto &vf = cfg.vf_table.state(it->vf_index);
        std::string name = cfg.vf_table.name(it->vf_index);
        if (it->vf_index == best_e)
            name += " *E";
        if (it->vf_index == best_edp)
            name += " *EDP";
        table.addRow({name, util::Table::num(vf.voltage, 3),
                      util::Table::num(vf.freq_ghz, 1),
                      util::Table::num(it->time_s, 2),
                      util::Table::num(it->energy_j, 1),
                      util::Table::num(it->core_energy_j, 1),
                      util::Table::num(it->nb_energy_j, 1),
                      util::Table::num(it->edp, 1)});
    }
    table.print(std::cout);

    std::printf("\nEnergy-optimal state: %s (%.1f J/thread)\n",
                cfg.vf_table.name(best_e).c_str(),
                points[best_e].energy_j);
    std::printf("EDP-optimal state:    %s (%.1f J*s/thread)\n",
                cfg.vf_table.name(best_edp).c_str(),
                points[best_edp].edp);
    std::printf("NB share of energy at VF5: %.0f%%\n",
                100.0 * points.back().nb_energy_j /
                    points.back().energy_j);
    return 0;
}
