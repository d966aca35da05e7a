/**
 * @file
 * Sec. IV-E: PPEP runtime overhead. The paper reports "negligible
 * overhead at our 200 ms sampling rate" for the user-level daemon; this
 * google-benchmark binary measures what one full decision actually
 * costs: reading an interval's counters into predictions at every VF
 * state, plus the cost of each model component in isolation.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "capping_odometer.hpp"
#include "nb_damped_oracle.hpp"
#include "ppep/governor/energy_governor.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/runtime/sampler.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/sim/northbridge.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/rng.hpp"

namespace {

using namespace ppep;

/** Trained models + a representative interval, built once. */
struct Context
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    model::Ppep ppep;
    trace::IntervalRecord rec;

    Context()
        : models([this] {
              model::Trainer trainer(cfg, bench::kSeed);
              // A compact training set keeps benchmark startup quick.
              auto combos = workloads::singleProgramCombinations();
              combos.resize(12);
              return trainer.trainAll(combos);
          }()),
          ppep(cfg, models.chip, models.pg)
    {
        sim::Chip chip(cfg, bench::kSeed);
        workloads::launch(chip, workloads::replicate("433.milc", 4),
                          true);
        trace::Collector col(chip);
        col.collect(3);
        rec = col.collectInterval();
    }

    static const Context &
    get()
    {
        static const Context ctx;
        return ctx;
    }
};

void
BM_FullExploration(benchmark::State &state)
{
    const auto &ctx = Context::get();
    for (auto _ : state) {
        auto preds = ctx.ppep.explore(ctx.rec);
        benchmark::DoNotOptimize(preds);
    }
}
BENCHMARK(BM_FullExploration);

void
BM_FullExplorationReused(benchmark::State &state)
{
    // The governor's steady-state path: exploreInto() with a reused
    // buffer performs no heap allocation after the first interval.
    const auto &ctx = Context::get();
    std::vector<model::VfPrediction> preds;
    for (auto _ : state) {
        ctx.ppep.exploreInto(ctx.rec, preds);
        benchmark::DoNotOptimize(preds);
    }
}
BENCHMARK(BM_FullExplorationReused);

void
BM_FullExplorationScratch(benchmark::State &state)
{
    // The zero-allocation overload the governors use: the observation
    // buffer lives in the caller's scratch, so steady state touches no
    // heap at all.
    const auto &ctx = Context::get();
    std::vector<model::VfPrediction> preds;
    model::ExploreScratch scratch;
    for (auto _ : state) {
        ctx.ppep.exploreInto(ctx.rec, preds, scratch);
        benchmark::DoNotOptimize(preds);
    }
}
BENCHMARK(BM_FullExplorationScratch);

void
BM_SingleVfPrediction(benchmark::State &state)
{
    const auto &ctx = Context::get();
    for (auto _ : state) {
        auto pred = ctx.ppep.predictVf(ctx.rec, 0);
        benchmark::DoNotOptimize(pred);
    }
}
BENCHMARK(BM_SingleVfPrediction);

void
BM_EventPrediction(benchmark::State &state)
{
    const auto &ctx = Context::get();
    for (auto _ : state) {
        auto pred = model::EventPredictor::predict(
            ctx.rec.pmc[0], ctx.rec.duration_s, 3.5, 1.4);
        benchmark::DoNotOptimize(pred);
    }
}
BENCHMARK(BM_EventPrediction);

void
BM_IdleModelEvaluation(benchmark::State &state)
{
    const auto &ctx = Context::get();
    for (auto _ : state) {
        double p = ctx.models.idle.predict(1.128, 325.0);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_IdleModelEvaluation);

void
BM_DynamicModelEvaluation(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto rates =
        model::powerEventRates(ctx.rec.pmc, ctx.rec.duration_s);
    for (auto _ : state) {
        double p = ctx.models.dynamic.estimate(rates, 1.128);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_DynamicModelEvaluation);

// --- acquisition-path overhead ------------------------------------------
//
// The fault-injection layer is strictly opt-in; the three benchmarks
// below quantify what "opt-in" costs. CollectorInterval is the seed
// baseline; SamplerIntervalClean runs the hardened path on a faultless
// chip (the price of the guards themselves); SamplerIntervalFaulty adds
// an active fault plan. The first two should be within noise of each
// other — the hardened path's per-interval work is a handful of
// comparisons per tick on top of the simulation.

void
BM_CollectorInterval(benchmark::State &state)
{
    const auto &ctx = Context::get();
    sim::Chip chip(ctx.cfg, bench::kSeed);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    for (auto _ : state) {
        auto rec = col.collectInterval();
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_CollectorInterval);

void
BM_SamplerIntervalClean(benchmark::State &state)
{
    const auto &ctx = Context::get();
    sim::Chip chip(ctx.cfg, bench::kSeed);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    runtime::Sampler sampler(chip);
    for (auto _ : state) {
        auto rec = sampler.collectInterval();
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_SamplerIntervalClean);

void
BM_SamplerIntervalFaulty(benchmark::State &state)
{
    const auto &ctx = Context::get();
    sim::Chip chip(ctx.cfg, bench::kSeed);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    chip.setFaultPlan(sim::FaultPlan::parse(
                          "msr=0.05,wrap=30,saturate=0.001,mux=0.02,"
                          "diode_spike=0.01,sensor_drop=0.01,"
                          "vf_reject=0.05,jitter=0.2"),
                      bench::kSeed);
    runtime::Sampler sampler(chip);
    for (auto _ : state) {
        auto rec = sampler.collectInterval();
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_SamplerIntervalFaulty);

/** The benchmark interval's chip on per-CU rails (Sec. V-B) or on
 *  the FX-8320's shared rail (what fleets and the digests run). */
sim::ChipConfig
cappingConfig(bool per_cu_voltage)
{
    auto cfg = Context::get().cfg;
    cfg.per_cu_voltage = per_cu_voltage;
    return cfg;
}

void
BM_CappingDecision(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(true);
    governor::PpepCappingGovernor gov(cfg, ctx.ppep);
    for (auto _ : state) {
        auto vf = gov.decide(ctx.rec, 60.0);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingDecision);

void
BM_CappingDecisionScratch(benchmark::State &state)
{
    // decideInto() with a reused output vector — the GovernorLoop
    // steady-state path.
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(true);
    governor::PpepCappingGovernor gov(cfg, ctx.ppep);
    std::vector<std::size_t> vf;
    for (auto _ : state) {
        gov.decideInto(ctx.rec, 60.0, vf);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingDecisionScratch);

void
BM_CappingDecisionSharedRail(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(false);
    governor::PpepCappingGovernor gov(cfg, ctx.ppep);
    for (auto _ : state) {
        auto vf = gov.decide(ctx.rec, 60.0);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingDecisionSharedRail);

void
BM_CappingDecisionScratchSharedRail(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(false);
    governor::PpepCappingGovernor gov(cfg, ctx.ppep);
    std::vector<std::size_t> vf;
    for (auto _ : state) {
        gov.decideInto(ctx.rec, 60.0, vf);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingDecisionScratchSharedRail);

/**
 * The exhaustive odometer the solver replaced (the tests' oracle), on
 * the same interval and cap: the denominators of the speed-up ratios
 * main() prints.
 */
void
BM_CappingOdometerScratch(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(true);
    oracle::CappingOdometer odometer(cfg, ctx.ppep);
    std::vector<std::size_t> vf;
    for (auto _ : state) {
        odometer.decideInto(ctx.rec, 60.0, vf);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingOdometerScratch);

void
BM_CappingOdometerScratchSharedRail(benchmark::State &state)
{
    const auto &ctx = Context::get();
    const auto cfg = cappingConfig(false);
    oracle::CappingOdometer odometer(cfg, ctx.ppep);
    std::vector<std::size_t> vf;
    for (auto _ : state) {
        odometer.decideInto(ctx.rec, 60.0, vf);
        benchmark::DoNotOptimize(vf);
    }
}
BENCHMARK(BM_CappingOdometerScratchSharedRail);

/**
 * @p n busy cores for the NB contention solve: seeded draws of a suite
 * program phase at a random P-state.
 */
std::vector<sim::CoreDemand>
nbDemands(const sim::ChipConfig &cfg, std::size_t n)
{
    util::Rng rng(bench::kSeed + n);
    const auto &programs = workloads::Suite::all();
    std::vector<sim::CoreDemand> out;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &program = programs[rng.next() % programs.size()];
        const auto &phase =
            program.phases[rng.next() % program.phases.size()];
        const double f =
            cfg.vf_table.state(rng.next() % cfg.vf_table.size()).freq_ghz;
        out.push_back(
            {sim::CoreModel::effectiveRates(cfg, phase, f, rng), f});
    }
    return out;
}

/** One tick's NB contention solve (bracketed Newton) over n cores. */
void
BM_NbResolve(benchmark::State &state)
{
    const auto cfg = sim::fx8320Config();
    const sim::NorthBridge nb(cfg);
    const auto demands =
        nbDemands(cfg, static_cast<std::size_t>(state.range(0)));
    sim::NbResolution res;
    for (auto _ : state) {
        nb.resolveInto(demands, res);
        benchmark::DoNotOptimize(res.utilization);
    }
    state.counters["evaluations"] = res.evaluations;
}
BENCHMARK(BM_NbResolve)->Arg(4)->Arg(8);

/**
 * The damped fixed point the Newton solve replaced (the tests' oracle),
 * on the same demand sets: the denominators of the speed-up ratios
 * main() prints.
 */
void
BM_NbResolveDampedOracle(benchmark::State &state)
{
    const auto cfg = sim::fx8320Config();
    const sim::NorthBridge nb(cfg);
    const auto demands =
        nbDemands(cfg, static_cast<std::size_t>(state.range(0)));
    sim::NbResolution res;
    for (auto _ : state) {
        oracle::resolveDamped(cfg, nb, demands, res);
        benchmark::DoNotOptimize(res.utilization);
    }
}
BENCHMARK(BM_NbResolveDampedOracle)->Arg(4)->Arg(8);

void
BM_GovernorLoopInterval(benchmark::State &state)
{
    // One full governed interval on the allocation-free drive() path:
    // simulate + collect + explore + decide + apply, reusing every
    // buffer after warm-up.
    const auto &ctx = Context::get();
    sim::Chip chip(ctx.cfg, bench::kSeed);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::EnergyOptimalGovernor gov(ctx.cfg, ctx.ppep,
                                        governor::EnergyObjective::Edp);
    governor::GovernorLoop loop(chip, gov);
    const auto schedule = governor::CapSchedule::unlimited();
    loop.drive(3, schedule); // warm the scratch buffers
    for (auto _ : state)
        benchmark::DoNotOptimize(loop.drive(1, schedule));
}
BENCHMARK(BM_GovernorLoopInterval);

/**
 * Console output as usual, plus every result mirrored into
 * BENCH_overhead.json through the shared BenchJson schema.
 */
class JsonMirrorReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonMirrorReporter(bench::BenchJson &json) : json_(json) {}

    void ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &r : runs) {
            json_.add(r.benchmark_name(), "real_time",
                      r.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(r.time_unit));
            seconds_[r.benchmark_name()] =
                r.real_accumulated_time /
                static_cast<double>(r.iterations);
        }
    }

    /**
     * Within-run speed-up of @p variant over @p control (both measured
     * in this process), printed and mirrored into the JSON; skipped
     * when a filter left either out.
     */
    void reportRatio(const std::string &name, const std::string &control,
                     const std::string &variant)
    {
        const auto c = seconds_.find(control);
        const auto v = seconds_.find(variant);
        if (c == seconds_.end() || v == seconds_.end() ||
            !(v->second > 0.0))
            return;
        const double ratio = c->second / v->second;
        std::printf("%s: %s / %s = %.1fx\n", name.c_str(),
                    control.c_str(), variant.c_str(), ratio);
        json_.add(name, "ratio", ratio, "x");
    }

  private:
    bench::BenchJson &json_;
    std::map<std::string, double> seconds_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ppep::bench::BenchJson json("overhead", "BENCH_overhead.json");
    JsonMirrorReporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    reporter.reportRatio("capping_speedup_per_cu",
                         "BM_CappingOdometerScratch",
                         "BM_CappingDecisionScratch");
    reporter.reportRatio("capping_speedup_shared_rail",
                         "BM_CappingOdometerScratchSharedRail",
                         "BM_CappingDecisionScratchSharedRail");
    for (const char *n : {"4", "8"})
        reporter.reportRatio(std::string("nb_resolve_speedup_") + n,
                             std::string("BM_NbResolveDampedOracle/") + n,
                             std::string("BM_NbResolve/") + n);
    json.write();
    benchmark::Shutdown();
    return 0;
}
