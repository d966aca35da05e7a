/**
 * @file
 * Exploration-kernel microbench: ns per full VF-table exploration and
 * per VF-state, the scalar oracle (tests/explore_scalar_oracle.cpp) vs
 * the batched kernel, plus the telemetry encode cost per row (CSV and
 * JSONL into a null stream).
 *
 * Modes:
 *   bench_explore                 full run, writes BENCH_explore.json
 *   bench_explore --quick         shorter timed sections (CI smoke)
 *   bench_explore --check FILE    compare against a committed baseline
 *                                 instead of writing one: fails if the
 *                                 batched/scalar speedup regressed more
 *                                 than 25% or dropped below the 2x
 *                                 acceptance floor. The ratio is
 *                                 host-normalized by construction —
 *                                 both sides of it run on this machine.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <streambuf>

#include "bench_common.hpp"
#include "explore_scalar_oracle.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"

namespace {

using namespace ppep;
using Clock = std::chrono::steady_clock;

constexpr double kSpeedupFloor = 2.0;     // acceptance criterion
constexpr double kRegressionBand = 1.25;  // vs committed baseline

struct TrainedStack
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    TrainedStack()
    {
        // Small fixed training set: bench startup stays ~1 s so the CI
        // smoke job can afford a Release build + run per push.
        model::Trainer trainer(cfg, bench::kSeed);
        std::vector<const workloads::Combination *> training;
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() == 1 && training.size() < 12)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }
};

trace::IntervalRecord
measure(const sim::ChipConfig &cfg, const std::string &program,
        std::size_t copies, std::size_t vf)
{
    sim::Chip chip(cfg, 77);
    chip.setAllVf(vf);
    workloads::launch(chip, workloads::replicate(program, copies), true);
    trace::Collector col(chip);
    col.collect(3);
    return col.collectInterval();
}

/**
 * Best-of-5 wall time for @p iters calls of @p body, in ns per call.
 * Taking the minimum over repetitions rejects scheduler interference,
 * which otherwise dominates on small shared runners.
 */
template <typename F>
double
nsPerCall(std::size_t iters, F &&body)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            body();
        const auto t1 = Clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            static_cast<double>(iters);
        best = std::min(best, ns);
    }
    return best;
}

/** Discards everything; isolates encode cost from the filesystem. */
class NullStreambuf : public std::streambuf
{
  protected:
    int
    overflow(int c) override
    {
        return c == traits_type::eof() ? 0 : c;
    }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0 &&
                   i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--check FILE]\n",
                         argv[0]);
            return EXIT_FAILURE;
        }
    }

    bench::header("Exploration kernel: scalar reference vs batched "
                  "VF x core sweep",
                  "perf harness (not a paper figure): the Fig. 5 "
                  "per-interval hot path");

    TrainedStack stack;
    model::Ppep ppep(stack.cfg, stack.models.chip, stack.models.pg);
    const std::size_t n_vf = ppep.vfTable().size();

    // A fully busy chip: the worst-case (and typical governed) sweep.
    const trace::IntervalRecord rec =
        measure(stack.cfg, "433.milc", 8, 2);

    model::ExploreScratch scratch;
    std::vector<model::VfPrediction> preds;
    ppep.exploreInto(rec, preds, scratch); // warm all buffers
    oracle::exploreScalar(ppep, rec, preds, scratch);

    const std::size_t iters = quick ? 20000 : 200000;
    const double scalar_ns = nsPerCall(
        iters, [&] { oracle::exploreScalar(ppep, rec, preds, scratch); });
    const double batched_ns =
        nsPerCall(iters, [&] { ppep.exploreInto(rec, preds, scratch); });
    const double speedup =
        batched_ns > 0.0 ? scalar_ns / batched_ns : 0.0;

    std::printf("full exploration (%zu cores x %zu VF states):\n",
                rec.pmc.size(), n_vf);
    std::printf("  scalar   %9.1f ns/explore  %8.1f ns/VF-state\n",
                scalar_ns, scalar_ns / static_cast<double>(n_vf));
    std::printf("  batched  %9.1f ns/explore  %8.1f ns/VF-state\n",
                batched_ns, batched_ns / static_cast<double>(n_vf));
    std::printf("  speedup  %.2fx\n\n", speedup);

    // Telemetry encode cost per row, measured through real sinks.
    const std::vector<std::size_t> cu_vf(stack.cfg.n_cus, 2);
    runtime::IntervalTelemetry t;
    t.index = 1;
    t.time_s = 0.2;
    t.rec = &rec;
    t.cu_vf = &cu_vf;
    t.cap_w = 80.0;
    t.predicted_power_w = 41.25;
    t.exploration = &preds;
    t.decision_latency_s = 3e-6;

    NullStreambuf null;
    std::ostream null_os(&null);
    runtime::CsvSink csv(null_os);
    runtime::JsonlSink jsonl(null_os);
    csv.onInterval(t);   // warm
    jsonl.onInterval(t); // warm
    const std::size_t encode_iters = quick ? 50000 : 500000;
    const double csv_ns =
        nsPerCall(encode_iters, [&] { csv.onInterval(t); });
    const double jsonl_ns =
        nsPerCall(encode_iters, [&] { jsonl.onInterval(t); });
    std::printf("telemetry encode (null stream):\n");
    std::printf("  csv      %9.1f ns/row\n", csv_ns);
    std::printf("  jsonl    %9.1f ns/row\n\n", jsonl_ns);

    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in.is_open()) {
            std::fprintf(stderr, "cannot open baseline %s\n",
                         check_path.c_str());
            return EXIT_FAILURE;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const double base_speedup =
            bench::baselineValue(buf.str(),
                                 "speedup_batched_vs_scalar");
        if (!(base_speedup > 0.0)) {
            std::fprintf(stderr,
                         "baseline %s has no usable "
                         "speedup_batched_vs_scalar row\n",
                         check_path.c_str());
            return EXIT_FAILURE;
        }
        bool ok = true;
        if (speedup < kSpeedupFloor) {
            std::fprintf(stderr,
                         "FAIL: batched speedup %.2fx is under the "
                         "%.1fx acceptance floor\n",
                         speedup, kSpeedupFloor);
            ok = false;
        }
        if (speedup * kRegressionBand < base_speedup) {
            std::fprintf(stderr,
                         "FAIL: batched speedup %.2fx regressed >25%% "
                         "vs committed baseline %.2fx\n",
                         speedup, base_speedup);
            ok = false;
        }
        std::printf("baseline check vs %s: speedup %.2fx vs committed "
                    "%.2fx -> %s\n",
                    check_path.c_str(), speedup, base_speedup,
                    ok ? "OK" : "REGRESSED");
        return ok ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    bench::BenchJson json("explore", "BENCH_explore.json");
    json.add("explore_scalar", "ns_per_explore", scalar_ns, "ns");
    json.add("explore_scalar", "ns_per_vf_state",
             scalar_ns / static_cast<double>(n_vf), "ns");
    json.add("explore_batched", "ns_per_explore", batched_ns, "ns");
    json.add("explore_batched", "ns_per_vf_state",
             batched_ns / static_cast<double>(n_vf), "ns");
    json.add("explore", "speedup_batched_vs_scalar", speedup, "x");
    json.add("encode_csv", "ns_per_row", csv_ns, "ns");
    json.add("encode_jsonl", "ns_per_row", jsonl_ns, "ns");
    json.write();
    return EXIT_SUCCESS;
}
