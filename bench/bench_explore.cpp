/**
 * @file
 * Exploration-kernel microbench: ns per full VF-table exploration and
 * per VF-state, the scalar oracle (tests/explore_scalar_oracle.cpp) vs
 * the batched kernel, plus the telemetry encode cost per row (CSV and
 * JSONL into a null stream).
 *
 * Modes:
 *   bench_explore                 full run, writes BENCH_explore.json
 *   bench_explore --quick         fewer, shorter timed sections (CI
 *                                 smoke)
 *   bench_explore --check FILE    compare against a committed baseline
 *                                 instead of writing one: fails if the
 *                                 batched/scalar speedup regressed more
 *                                 than 25% or dropped below the 2x
 *                                 acceptance floor. The ratio is
 *                                 host-normalized by construction —
 *                                 both sides of it run on this machine.
 *
 * The speedup is the median of per-pair ratios: scalar and batched are
 * timed back to back in interleaved pairs, each section sized to at
 * least ~100 ms (--quick) or ~250 ms, so one scheduler stall moves one
 * pair, not the verdict.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <vector>

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

/** Wall time of @p iters calls of @p body, in ns per call. */
template <typename F>
double
timedNs(std::size_t iters, F &&body)
{
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body();
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
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
    for (int rep = 0; rep < 5; ++rep)
        best = std::min(best, timedNs(iters, body));
    return best;
}

/** Calls of @p body that take at least @p seconds, from a probe. */
template <typename F>
std::size_t
itersFor(double seconds, F &&body)
{
    std::size_t probe = 1000;
    for (;;) {
        const double ns = timedNs(probe, body);
        if (ns * static_cast<double>(probe) >= 1e7) // 10 ms probe
            return static_cast<std::size_t>(seconds * 1e9 / ns) + 1;
        probe *= 4;
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Medians over interleaved scalar/batched pairs. */
struct PairedTiming
{
    double scalar_ns = 0.0;
    double batched_ns = 0.0;
    double speedup = 0.0; ///< median of the per-pair scalar/batched
    double speedup_min = 0.0;
    double speedup_max = 0.0;
};

/**
 * Time @p scalar and @p batched back to back in @p pairs pairs, each
 * section @p iters calls. Odd pairs run batched first, so neither side
 * always follows the other.
 */
template <typename S, typename B>
PairedTiming
timePairs(std::size_t pairs, std::size_t iters, S &&scalar, B &&batched)
{
    std::vector<double> s_ns, b_ns, ratio;
    for (std::size_t p = 0; p < pairs; ++p) {
        double s = 0.0, b = 0.0;
        if (p % 2 == 0) {
            s = timedNs(iters, scalar);
            b = timedNs(iters, batched);
        } else {
            b = timedNs(iters, batched);
            s = timedNs(iters, scalar);
        }
        s_ns.push_back(s);
        b_ns.push_back(b);
        ratio.push_back(b > 0.0 ? s / b : 0.0);
    }
    PairedTiming out;
    out.scalar_ns = median(s_ns);
    out.batched_ns = median(b_ns);
    out.speedup = median(ratio);
    out.speedup_min = *std::min_element(ratio.begin(), ratio.end());
    out.speedup_max = *std::max_element(ratio.begin(), ratio.end());
    return out;
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

    auto scalar = [&] { oracle::exploreScalar(ppep, rec, preds, scratch); };
    auto batched = [&] { ppep.exploreInto(rec, preds, scratch); };
    // Size on the faster side, so both sections run at least this long.
    const std::size_t iters = itersFor(quick ? 0.1 : 0.25, batched);
    const std::size_t pairs = quick ? 5 : 9;
    const PairedTiming timing = timePairs(pairs, iters, scalar, batched);
    const double scalar_ns = timing.scalar_ns;
    const double batched_ns = timing.batched_ns;
    const double speedup = timing.speedup;

    std::printf("full exploration (%zu cores x %zu VF states):\n",
                rec.pmc.size(), n_vf);
    std::printf("  scalar   %9.1f ns/explore  %8.1f ns/VF-state\n",
                scalar_ns, scalar_ns / static_cast<double>(n_vf));
    std::printf("  batched  %9.1f ns/explore  %8.1f ns/VF-state\n",
                batched_ns, batched_ns / static_cast<double>(n_vf));
    std::printf("  speedup  %.2fx (median of %zu pairs of %zu calls, "
                "range %.2f-%.2fx)\n\n",
                speedup, pairs, iters, timing.speedup_min,
                timing.speedup_max);

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
