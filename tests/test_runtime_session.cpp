/**
 * @file
 * Tests for runtime::Session and the telemetry sinks: a Session must
 * reproduce the hand-assembled GovernorLoop flow exactly, and the sinks
 * must emit well-formed, complete telemetry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ppep/governor/energy_governor.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/governor/iterative_capping.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

/** Models trained once and shared by every test in this binary. */
struct Shared
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;

    Shared()
    {
        model::Trainer trainer(cfg, 33);
        std::vector<const workloads::Combination *> training;
        for (const auto &c : workloads::allCombinations())
            if (c.instances.size() == 1 && training.size() < 10)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }

    static const Shared &
    get()
    {
        static const Shared s;
        return s;
    }
};

const std::vector<std::string> kMix = {"433.milc", "458.sjeng", "CG",
                                       "EP"};

/** The pre-runtime-layer assembly, verbatim. */
std::vector<governor::GovernorStep>
manualRun(const Shared &s, std::size_t intervals)
{
    const model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    sim::Chip chip(s.cfg, 123);
    chip.setPowerGatingEnabled(true);
    for (std::size_t i = 0; i < kMix.size() && i < s.cfg.n_cus; ++i)
        chip.setJob(i * s.cfg.cores_per_cu,
                    workloads::Suite::byName(kMix[i]).makeLoopingJob());
    governor::EnergyOptimalGovernor gov(s.cfg, ppep,
                                        governor::EnergyObjective::Edp);
    governor::GovernorLoop loop(chip, gov);
    return loop.run(intervals, governor::CapSchedule::unlimited());
}

TEST(Session, ReproducesManualGovernorLoopTrace)
{
    const auto &s = Shared::get();
    const std::size_t intervals = 20;
    const auto manual = manualRun(s, intervals);

    auto session = runtime::Session::builder(s.cfg)
                       .seed(123)
                       .pg(true)
                       .onePerCu(kMix)
                       .models(s.models)
                       .governor(runtime::edpGovernor())
                       .build();
    const auto steps = session.run(intervals);

    ASSERT_EQ(steps.size(), manual.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i].cu_vf, manual[i].cu_vf) << "interval " << i;
        EXPECT_DOUBLE_EQ(steps[i].rec.sensor_power_w,
                         manual[i].rec.sensor_power_w)
            << "interval " << i;
        EXPECT_DOUBLE_EQ(steps[i].rec.diode_temp_k,
                         manual[i].rec.diode_temp_k)
            << "interval " << i;
    }
}

TEST(Session, SummarySinkMatchesGovernorMetrics)
{
    const auto &s = Shared::get();
    auto cfg = s.cfg;
    // Per-CU planes, as the capping governor assumes. The shared models
    // stay valid: the VF table is unchanged and the trained components
    // don't depend on the rail topology.
    cfg.per_cu_voltage = true;

    runtime::SummarySink summary;
    const governor::CapSchedule swing({{0, 110.0}, {10, 55.0}});
    auto session = runtime::Session::builder(cfg)
                       .seed(99)
                       .pg(true)
                       .onePerCu(kMix)
                       .models(s.models)
                       .governor(runtime::cappingGovernor())
                       .schedule(swing)
                       .sink(summary)
                       .build();
    const auto steps = session.run(30);

    const auto sum = summary.summary();
    EXPECT_EQ(sum.intervals, steps.size());
    EXPECT_DOUBLE_EQ(sum.cap_adherence, governor::capAdherence(steps));
    EXPECT_DOUBLE_EQ(sum.mean_settle_intervals,
                     governor::meanSettleIntervals(steps));

    // Residency counts every CU-interval exactly once.
    std::size_t residency_total = 0;
    for (std::size_t n : sum.vf_residency)
        residency_total += n;
    EXPECT_EQ(residency_total, steps.size() * cfg.n_cus);

    // The capping governor predicts power for every interval after the
    // first; MAE against the sensor must come out small but non-zero.
    EXPECT_EQ(sum.predicted_intervals, steps.size() - 1);
    EXPECT_TRUE(std::isfinite(sum.power_mae_w));
    EXPECT_GT(sum.power_mae_w, 0.0);
    EXPECT_LT(sum.power_mae_w, 25.0);
    EXPECT_GT(sum.mean_decision_latency_s, 0.0);
    EXPECT_GE(sum.max_decision_latency_s,
              sum.mean_decision_latency_s);
}

TEST(Session, TrainsOnlyOnCombinationsThePlatformCanHost)
{
    // An 8-instance combination cannot run on the 6-core Phenom II; the
    // session trains on the rest of its set, as a fleet session does.
    std::vector<const workloads::Combination *> combos;
    const workloads::Combination *eight = nullptr;
    for (const auto &c : workloads::allCombinations()) {
        if (c.instances.size() == 1 && combos.size() < 3)
            combos.push_back(&c);
        if (c.instances.size() == 8 && eight == nullptr)
            eight = &c;
    }
    ASSERT_NE(eight, nullptr);
    combos.push_back(eight);

    const sim::ChipConfig cfg = sim::phenomIIConfig();
    ASSERT_LT(cfg.coreCount(), eight->instances.size());
    auto session = runtime::Session::builder(cfg)
                       .trainingSeed(7)
                       .trainingCombos(combos)
                       .onePerCu({"EP", "CG"})
                       .build();
    EXPECT_EQ(session.drive(3), 3u);
    const model::TrainedModels fitted =
        model::Trainer(cfg, 7).trainAll(
            workloads::fittingCombinations(combos, cfg.coreCount()));
    EXPECT_EQ(session.models().dynamic.weights(),
              fitted.dynamic.weights());
}

TEST(SummarySink, SettlesOverlappingAndUnsettledCapDrops)
{
    // (cap, sensor power) per interval: two drops (1, 2) settle together
    // at interval 3, and the drop at 5 never settles before the run ends.
    const std::vector<std::pair<double, double>> trace = {
        {100.0, 90.0}, {80.0, 95.0}, {60.0, 90.0}, {60.0, 58.0},
        {60.0, 50.0},  {40.0, 55.0}, {40.0, 50.0}, {40.0, 45.0}};
    const std::vector<std::size_t> cu_vf = {0, 0, 0, 0};
    runtime::SummarySink summary;
    std::vector<governor::GovernorStep> steps;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        governor::GovernorStep step;
        step.cap_w = trace[i].first;
        step.rec.sensor_power_w = trace[i].second;
        step.rec.duration_s = 0.2;
        step.cu_vf = cu_vf;
        steps.push_back(step);
        runtime::IntervalTelemetry t;
        t.index = i;
        t.rec = &steps.back().rec;
        t.cu_vf = &cu_vf;
        t.cap_w = step.cap_w;
        summary.onInterval(t);
    }
    const auto sum = summary.summary();
    EXPECT_EQ(sum.intervals, trace.size());
    EXPECT_EQ(sum.cap_adherence, governor::capAdherence(steps));
    EXPECT_EQ(sum.mean_settle_intervals,
              governor::meanSettleIntervals(steps));
    EXPECT_EQ(sum.cap_adherence, 3.0 / 8.0);
    EXPECT_EQ(sum.mean_settle_intervals, (3.0 + 2.0 + 3.0) / 3.0);
}

/** Pull `"key":value` out of a JSONL line; value as raw text. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return {};
    auto end = pos + needle.size();
    int depth = 0;
    std::string out;
    while (end < line.size()) {
        const char c = line[end];
        if (c == '[')
            ++depth;
        if (c == ']') {
            if (depth == 0)
                break;
            --depth;
        }
        if (depth == 0 && (c == ',' || c == '}'))
            break;
        out += c;
        ++end;
    }
    return out;
}

TEST(Session, JsonlSinkEmitsOneParseableLinePerInterval)
{
    const auto &s = Shared::get();
    std::ostringstream out;
    runtime::JsonlSink jsonl(out);
    auto session = runtime::Session::builder(s.cfg)
                       .seed(123)
                       .pg(true)
                       .onePerCu(kMix)
                       .models(s.models)
                       .governor(runtime::edpGovernor())
                       .sink(jsonl)
                       .build();
    const std::size_t intervals = 12;
    const auto steps = session.run(intervals);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');

        EXPECT_EQ(jsonField(line, "interval"),
                  std::to_string(count));

        // Measured chip power must match the step record exactly.
        const std::string measured =
            jsonField(line, "measured_power_w");
        ASSERT_FALSE(measured.empty());
        EXPECT_DOUBLE_EQ(std::strtod(measured.c_str(), nullptr),
                         steps[count].rec.sensor_power_w);

        // Predicted power: null on the very first interval (nothing
        // had been forecast yet), a finite number afterwards.
        const std::string predicted =
            jsonField(line, "predicted_power_w");
        if (count == 0) {
            EXPECT_EQ(predicted, "null");
        } else {
            EXPECT_NE(predicted, "null");
            EXPECT_TRUE(std::isfinite(
                std::strtod(predicted.c_str(), nullptr)));
        }

        const std::string latency =
            jsonField(line, "decision_latency_us");
        ASSERT_FALSE(latency.empty());
        EXPECT_GT(std::strtod(latency.c_str(), nullptr), 0.0);

        const std::string cu_vf = jsonField(line, "cu_vf");
        EXPECT_EQ(cu_vf.front(), '[');
        ++count;
    }
    EXPECT_EQ(count, intervals);
}

TEST(Session, CsvSinkWritesHeaderAndRows)
{
    const auto &s = Shared::get();
    std::ostringstream out;
    runtime::CsvSink csv(out);
    auto session = runtime::Session::builder(s.cfg)
                       .seed(7)
                       .onePerCu({"458.sjeng"})
                       .models(s.models)
                       .sink(csv)
                       .build();
    session.run(5);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line))
        rows.push_back(line);
    ASSERT_EQ(rows.size(), 6u); // header + 5 intervals
    EXPECT_EQ(rows[0].find("interval,time_s,cap_w"), 0u);
    EXPECT_EQ(rows[1].find("0,"), 0u);
}

TEST(Session, ExternalGovernorNeedsNoModels)
{
    const auto &s = Shared::get();
    governor::IterativeCappingGovernor reactive(s.cfg);
    auto session = runtime::Session::builder(s.cfg)
                       .seed(11)
                       .onePerCu({"EP", "EP"})
                       .governor(reactive)
                       .schedule(governor::CapSchedule(80.0))
                       .build();
    EXPECT_FALSE(session.hasModels());
    const auto steps = session.run(8);
    EXPECT_EQ(steps.size(), 8u);
    EXPECT_EQ(&session.policy(), &reactive);
}

TEST(Session, FailedSinksAreReportedNotSilent)
{
    // A full disk (stream failure) mid-run must surface through both
    // the sink's own error state and Session::sinkErrors().
    const auto &s = Shared::get();
    governor::IterativeCappingGovernor reactive(s.cfg);
    std::ostringstream csv_out, jsonl_out;
    runtime::CsvSink csv(csv_out);
    runtime::JsonlSink jsonl(jsonl_out);
    auto session = runtime::Session::builder(s.cfg)
                       .seed(11)
                       .onePerCu({"EP"})
                       .governor(reactive)
                       .sink(csv)
                       .sink(jsonl)
                       .build();

    csv_out.setstate(std::ios::badbit); // the "disk fills up" moment
    session.run(3);

    EXPECT_TRUE(csv.failed());
    EXPECT_NE(csv.error().find("csv telemetry write failed"),
              std::string::npos);
    EXPECT_FALSE(jsonl.failed());
    EXPECT_TRUE(jsonl.error().empty());
    ASSERT_EQ(session.sinkErrors().size(), 1u);
    EXPECT_EQ(session.sinkErrors()[0], csv.error());

    // A later healthy run reports no stale errors from the sinks that
    // recovered... the CSV stream is still bad, so it stays reported.
    session.run(2);
    EXPECT_EQ(session.sinkErrors().size(), 1u);
}

TEST(Session, HardenedRunsExtendTelemetryPlainRunsDoNot)
{
    const auto &s = Shared::get();
    governor::IterativeCappingGovernor reactive(s.cfg);

    std::ostringstream plain_csv;
    {
        runtime::CsvSink csv(plain_csv);
        auto session = runtime::Session::builder(s.cfg)
                           .seed(5)
                           .onePerCu({"EP"})
                           .governor(reactive)
                           .sink(csv)
                           .build();
        session.run(2);
    }
    EXPECT_EQ(plain_csv.str().find("fault_events"), std::string::npos);

    governor::IterativeCappingGovernor reactive2(s.cfg);
    std::ostringstream csv_out, jsonl_out;
    {
        runtime::CsvSink csv(csv_out);
        runtime::JsonlSink jsonl(jsonl_out);
        auto session = runtime::Session::builder(s.cfg)
                           .seed(5)
                           .onePerCu({"EP"})
                           .governor(reactive2)
                           .faults(sim::FaultPlan::parse("msr=0.5"))
                           .sink(csv)
                           .sink(jsonl)
                           .build();
        session.run(4);
    }
    // Header gains the health columns, rows carry the degraded flag.
    std::istringstream lines(csv_out.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_NE(header.find(",fault_events,"), std::string::npos);
    EXPECT_NE(header.find(",degraded"), std::string::npos);

    std::istringstream jlines(jsonl_out.str());
    std::string line;
    bool saw_fault_events = false;
    while (std::getline(jlines, line)) {
        EXPECT_FALSE(jsonField(line, "fault_events").empty());
        const std::string flag = jsonField(line, "degraded");
        EXPECT_TRUE(flag == "true" || flag == "false");
        saw_fault_events |=
            jsonField(line, "fault_events") != "0";
    }
    EXPECT_TRUE(saw_fault_events); // msr=0.5 fails plenty of reads
}

TEST(Session, ZeroFaultPlanHardenedTraceMatchesPlainRun)
{
    // The hardened stack (Sampler + HealthMonitor + degraded wrapper)
    // around perfect hardware must reproduce the plain session's trace
    // bit for bit — the whole layer is strictly opt-in.
    const auto &s = Shared::get();
    auto run = [&](bool hardened) {
        governor::IterativeCappingGovernor reactive(s.cfg);
        auto builder = runtime::Session::builder(s.cfg)
                           .seed(21)
                           .onePerCu(kMix)
                           .governor(reactive)
                           .schedule(governor::CapSchedule(80.0));
        if (hardened)
            builder.faults(sim::FaultPlan{});
        auto session = builder.build();
        auto steps = session.run(15);
        if (hardened) {
            EXPECT_TRUE(session.hardened());
            EXPECT_EQ(session.sampler()->lastHealth().total_fault_events,
                      0u);
            EXPECT_FALSE(session.healthMonitor()->degraded());
            EXPECT_EQ(session.policy().name(),
                      "degraded-mode(simple-iterative)");
        } else {
            EXPECT_FALSE(session.hardened());
            EXPECT_EQ(session.sampler(), nullptr);
        }
        return steps;
    };

    const auto plain = run(false);
    const auto hardened = run(true);
    ASSERT_EQ(plain.size(), hardened.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].cu_vf, hardened[i].cu_vf) << "interval " << i;
        EXPECT_EQ(plain[i].rec.sensor_power_w,
                  hardened[i].rec.sensor_power_w)
            << "interval " << i;
        EXPECT_EQ(plain[i].rec.diode_temp_k,
                  hardened[i].rec.diode_temp_k)
            << "interval " << i;
        for (std::size_t c = 0; c < plain[i].rec.pmc.size(); ++c)
            for (std::size_t e = 0; e < sim::kNumEvents; ++e)
                EXPECT_EQ(plain[i].rec.pmc[c][e],
                          hardened[i].rec.pmc[c][e]);
    }
}

TEST(Session, TelemetryIndicesContinueAcrossRuns)
{
    const auto &s = Shared::get();
    std::ostringstream out;
    runtime::JsonlSink jsonl(out);
    auto session = runtime::Session::builder(s.cfg)
                       .seed(3)
                       .onePerCu({"CG"})
                       .models(s.models)
                       .sink(jsonl)
                       .build();
    session.run(3);
    session.run(2);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line))
        rows.push_back(line);
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(jsonField(rows.back(), "interval"), "4");
}

TEST(Session, CapScheduleContinuesAcrossRuns)
{
    // The schedule is indexed by the same session interval as the
    // telemetry: run(3) then run(3) must govern exactly like run(6) —
    // same caps, same decisions, same digest — including the decision
    // at the seam, which plans for interval 3's 80 W cap.
    const auto &s = Shared::get();
    const governor::CapSchedule schedule(
        {{0, std::numeric_limits<double>::max()}, {3, 80.0}});
    auto build = [&](runtime::DigestSink &digest) {
        return runtime::Session::builder(s.cfg)
            .seed(123)
            .pg(true)
            .onePerCu(kMix)
            .models(s.models)
            .governor(runtime::cappingGovernor())
            .schedule(schedule)
            .sink(digest)
            .build();
    };

    runtime::DigestSink whole_digest;
    auto whole = build(whole_digest);
    const auto six = whole.run(6);

    runtime::DigestSink split_digest;
    auto split = build(split_digest);
    auto steps = split.run(3);
    const auto second = split.run(3);
    steps.insert(steps.end(), second.begin(), second.end());

    ASSERT_EQ(steps.size(), six.size());
    for (std::size_t i = 0; i < six.size(); ++i) {
        EXPECT_EQ(steps[i].cap_w, schedule.capAt(i)) << "interval " << i;
        EXPECT_EQ(steps[i].cap_w, six[i].cap_w) << "interval " << i;
        EXPECT_EQ(steps[i].cu_vf, six[i].cu_vf) << "interval " << i;
    }
    EXPECT_EQ(split_digest.digest(), whole_digest.digest());
}

} // namespace
