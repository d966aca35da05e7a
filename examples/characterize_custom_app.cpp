/**
 * @file
 * Characterising a custom application: author a workload with the
 * ProfileBuilder, attribute per-core power with Eq. 7 while it runs
 * next to background threads, and persist the trained models for
 * redeployment — the downstream-user workflow end to end.
 *
 * Usage: characterize_custom_app [models-file]
 *        (reuses the models file if it exists; trains and writes it
 *        otherwise)
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "ppep/model/per_core_power.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/serialization.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/builder.hpp"
#include "ppep/workloads/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace ppep;
    const std::string models_path =
        argc > 1 ? argv[1] : "ppep_fx8320_models.txt";
    const auto cfg = sim::fx8320Config();

    // 1. Models: load if previously trained, else train and persist.
    model::TrainedModels models;
    if (std::ifstream(models_path).good()) {
        std::printf("loading models from %s\n", models_path.c_str());
        models = model::loadModels(models_path, cfg);
    } else {
        std::printf("training models (one-time)...\n");
        model::Trainer trainer(cfg, 42);
        models =
            trainer.trainAll(workloads::singleProgramCombinations());
        model::saveModels(models, models_path);
        std::printf("models written to %s\n", models_path.c_str());
    }

    // 2. Author "my-service": a request-processing loop alternating a
    //    parse-heavy phase with a memory-walking lookup phase.
    workloads::ProfileBuilder builder("my-service");
    builder.branchRate(0.22)
        .mispredictRate(0.06)
        .memoryIntensity(0.15)
        .resourceStallCpi(0.35)
        .addPhase(8e8) // parse
        .memoryIntensity(0.75)
        .dramShare(0.7)
        .branchRate(0.12)
        .addPhase(5e8); // lookup

    // 3. Run it beside two background threads (a co-located batch job).
    sim::Chip chip(cfg, 7);
    chip.setPowerGatingEnabled(true);
    chip.setJob(0, builder.makeLoopingJob());
    chip.setJob(2, workloads::Suite::byName("x264").makeLoopingJob());
    chip.setJob(4,
                workloads::Suite::byName("456.hmmer").makeLoopingJob());

    trace::Collector collector(chip);
    collector.collect(3);
    const auto rec = collector.collectInterval();

    // 4. Per-core attribution (Eq. 7) of the measured interval.
    const model::PerCorePower attribution(cfg, models.dynamic,
                                          models.pg);
    const auto shares = attribution.attribute(rec, true);

    util::Table table("Per-core power attribution (one 200 ms "
                      "interval, PG enabled):");
    table.setHeader({"core", "job", "dynamic (W)", "idle share (W)",
                     "total (W)"});
    const char *jobs[] = {"my-service", "-", "x264", "-",
                          "456.hmmer", "-", "-", "-"};
    for (std::size_t c = 0; c < shares.size(); ++c) {
        if (!shares[c].busy)
            continue;
        table.addRow({"core " + std::to_string(c), jobs[c],
                      util::Table::num(shares[c].dynamic_w, 2),
                      util::Table::num(shares[c].idle_share_w, 2),
                      util::Table::num(shares[c].total_w, 2)});
    }
    table.print(std::cout);
    std::printf("attributed total: %.1f W   sensor: %.1f W\n",
                model::PerCorePower::total(shares),
                rec.sensor_power_w);

    // 5. What would my-service cost per request batch at each VF state?
    const model::Ppep ppep(cfg, models.chip, models.pg);
    const auto preds = ppep.explore(rec);
    std::printf("\nchip-wide energy/instruction by VF state:");
    for (const auto &p : preds)
        std::printf(" %s=%.1fnJ", cfg.vf_table.name(p.vf_index).c_str(),
                    p.energy_per_inst * 1e9);
    std::printf("\n");
    return 0;
}
