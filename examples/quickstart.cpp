/**
 * @file
 * Quickstart: train PPEP on the simulated AMD FX-8320 and predict
 * performance/power/energy across all five VF states for a running
 * workload — the end-to-end Fig. 5 flow in ~80 lines of user code.
 *
 * Usage: quickstart [benchmark-name]   (default: 433.milc)
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "ppep/model/ppep.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/table.hpp"
#include "ppep/workloads/suite.hpp"

int
main(int argc, char **argv)
{
    const std::string program = argc > 1 ? argv[1] : "433.milc";
    if (!ppep::workloads::Suite::exists(program)) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", program.c_str());
        return 1;
    }

    const ppep::sim::ChipConfig cfg = ppep::sim::fx8320Config();
    std::printf("Platform: %s\n", cfg.name.c_str());

    // 1. One-time offline training (idle model, alpha, PG sweep, Eq. 3
    //    regression on a handful of training combinations). The
    //    ModelStore caches the result on disk, so only the very first
    //    quickstart run pays for it.
    std::vector<const ppep::workloads::Combination *> training;
    for (const auto &c : ppep::workloads::allCombinations()) {
        // A small, diverse training set keeps the quickstart fast.
        if (c.instances.size() == 1 && training.size() < 12)
            training.push_back(&c);
    }
    ppep::runtime::ModelStore store;
    bool cached = false;
    const ppep::model::TrainedModels models =
        store.trainOrLoad(cfg, /*seed=*/42, training, &cached);
    std::printf(cached ? "Loaded cached PPEP models.\n"
                       : "Trained PPEP models (now cached).\n");
    std::printf("  alpha = %.2f\n", models.alpha);

    // 2. Run the chosen workload at the top VF state and grab one
    //    200 ms interval of counters.
    // PG stays disabled here: the Eq. 2 idle model describes the
    // active-idle chip (the paper's Sec. IV-A..C setup).
    ppep::sim::Chip chip(cfg, /*seed=*/7);
    chip.setAllVf(cfg.vf_table.top());
    const auto combo = ppep::workloads::replicate(program, 1);
    ppep::workloads::launch(chip, combo, /*looping=*/true);
    ppep::trace::Collector collector(chip);
    collector.collect(5); // warm up
    const auto rec = collector.collectInterval();

    // 3. The Fig. 5 pipeline: PPE at every VF state from that interval.
    const ppep::model::Ppep ppep(cfg, models.chip, models.pg);
    const auto predictions = ppep.explore(rec);

    ppep::util::Table table("\nPPEP predictions for " + program +
                            " (measured at VF5):");
    table.setHeader({"VF", "V", "GHz", "pred power (W)", "pred IPS",
                     "energy/inst (nJ)", "rel. EDP"});
    const double edp_ref = predictions.back().edp_per_inst;
    for (const auto &p : predictions) {
        const auto &vf = cfg.vf_table.state(p.vf_index);
        table.addRow({cfg.vf_table.name(p.vf_index),
                      ppep::util::Table::num(vf.voltage, 3),
                      ppep::util::Table::num(vf.freq_ghz, 1),
                      ppep::util::Table::num(p.chip_power_w, 1),
                      ppep::util::Table::num(p.total_ips / 1e9, 2) + "e9",
                      ppep::util::Table::num(p.energy_per_inst * 1e9, 2),
                      ppep::util::Table::num(
                          edp_ref > 0.0 ? p.edp_per_inst / edp_ref : 0.0,
                          2)});
    }
    table.print(std::cout);

    // 4. Sanity: compare the estimate at the current state against the
    //    sensor (the only power truth software can see).
    const auto est = models.chip.estimate(rec);
    std::printf("\nSensor power this interval: %.1f W\n",
                rec.sensor_power_w);
    std::printf("PPEP estimate:              %.1f W  (%.1f%% error)\n",
                est.total_w,
                100.0 * std::abs(est.total_w - rec.sensor_power_w) /
                    rec.sensor_power_w);
    return 0;
}
