/**
 * @file
 * ppep_perfbench: the repository's fleet benchmark program.
 *
 *   ppep_perfbench --workload fleet_sim|fleet_replay|fleet_budget
 *                  --seed N --seconds S --trace 0|1
 *                  --work-dir DIR --out-dir DIR [--revision REV] [--quick]
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * runs the traced drive and reports the per-layer split. Either way
 * every session's telemetry digest is checked against a 1-worker
 * reference pass, and the last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}. The stamped result
 * (host, build, seed, revision, sample counts) goes to
 * DIR/<workload>-seed<N>-trace<T>.json, the traced run's spans to
 * DIR/<workload>-seed<N>.trace.json (Chrome trace-event format).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/trace/replay.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace rt = ppep::runtime;

namespace perfbench {
namespace {

struct Options
{
    Workload workload = Workload::FleetSim;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string work_dir = ".bench_build/work";
    std::string out_dir = ".bench_out";
    std::string revision = "unknown";
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Outcome bookkeeping shared by every pass of a run. */
struct Check
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /** Count @p digests against @p want; a zero digest is a session
     *  that failed. */
    void digests(const std::vector<std::uint64_t> &digests,
                 const std::vector<std::uint64_t> &want)
    {
        attempted += digests.size();
        for (std::size_t i = 0; i < digests.size(); ++i)
            if (digests[i] == 0 || digests[i] != want[i])
                ++failed;
    }

    void fleet(const rt::FleetResult &r,
               const std::vector<std::uint64_t> &want)
    {
        digests(digestsOf(r), want);
    }

    static std::vector<std::uint64_t> digestsOf(const rt::FleetResult &r)
    {
        std::vector<std::uint64_t> out;
        for (const auto &s : r.sessions)
            out.push_back(s.completed ? s.telemetry_digest : 0);
        return out;
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsSince(double t0_us)
{
    return (nowUs() - t0_us) * 1e-6;
}

/** Samples the host time of every lockstep round (fleet_budget): the
 *  arbiter observer fires once per round, after the arbiter decided. */
struct RoundClock
{
    std::vector<double> stamps_us;
    std::atomic<std::uint64_t> round{0};
    Tracer *tracer = nullptr;

    void onRound(std::size_t interval)
    {
        const double now = nowUs();
        if (tracer && !stamps_us.empty())
            tracer->record(kInterval, kFleetSpan,
                           static_cast<std::uint32_t>(interval),
                           stamps_us.back(), now);
        stamps_us.push_back(now);
        round.fetch_add(1);
    }

    /** Become the arbiter observer of @p spec, if it arbitrates. */
    void watch(rt::FleetSpec &spec)
    {
        if (spec.arbiter)
            spec.arbiter->observer = [this](const rt::ArbiterIntervalView &v) {
                onRound(v.interval);
            };
    }

    void appendLatencies(std::vector<double> &out) const
    {
        for (std::size_t k = 1; k < stamps_us.size(); ++k)
            out.push_back(stamps_us[k] - stamps_us[k - 1]);
    }
};

/** Everything a cold set-up leaves for the timed passes. */
struct Setup
{
    double train_s = 0.0;
    double record_s = 0.0;
    double prepare_s = 0.0;
    double replay_open_s = 0.0;
    double total_s = 0.0;
    std::unique_ptr<rt::Fleet> fleet;
    std::unique_ptr<ppep::trace::ReplayFile> replay;
    /** Digests of the recording run (fleet_replay). */
    std::vector<std::uint64_t> record_digests;
};

/**
 * Cold start until the first governed interval could run: train every
 * distinct config into a fresh ModelStore, prepare the fleet from it,
 * and for fleet_replay record the sessions once and open the file.
 */
Setup
coldSetup(const Plan &plan, const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    Setup s;
    const rt::ModelStore store((dir / "store").string());
    rt::FleetSpec spec = plan.spec;
    spec.store = store;

    const double t0 = nowUs();
    for (const auto &cfg : plan.configs)
        store.trainOrLoad(cfg, spec.training_seed, plan.training);
    s.train_s = secondsSince(t0);

    if (plan.kind == Workload::FleetReplay) {
        const double r0 = nowUs();
        rt::FleetSpec rec = spec;
        rec.record_path = (dir / "fleet.trc").string();
        rt::Fleet recorder(std::move(rec));
        s.record_digests = Check::digestsOf(recorder.run(plan.workers));
        spec.replay_path = (dir / "fleet.trc").string();
        s.record_s = secondsSince(r0);
    }

    const double p0 = nowUs();
    s.fleet = std::make_unique<rt::Fleet>(std::move(spec));
    s.fleet->prepare();
    s.prepare_s = secondsSince(p0);

    if (plan.kind == Workload::FleetReplay) {
        const double o0 = nowUs();
        s.replay = std::make_unique<ppep::trace::ReplayFile>(
            (dir / "fleet.trc").string());
        s.replay_open_s = secondsSince(o0);
    }
    s.total_s = secondsSince(t0);
    return s;
}

/** Records host time at every telemetry callback of a probe session. */
class StampSink final : public rt::TelemetrySink
{
  public:
    void onInterval(const rt::IntervalTelemetry &) override
    {
        stamps_us_.push_back(nowUs());
    }
    std::vector<double> &stamps() { return stamps_us_; }

  private:
    std::vector<double> stamps_us_;
};

/**
 * The latency probes of fleet_sim and fleet_replay: one Session per
 * fleet session, rebuilt through Session::builder() with the fleet's
 * shared models and a timestamping TelemetrySink, each driven alone on
 * the calling thread a chunk of intervals at a time. One group drives
 * every probe one chunk, so every group samples the whole fleet. A
 * probe that has run the fleet's intervals must match the reference
 * digest, and starts over.
 */
class Probes
{
  public:
    static constexpr std::size_t kChunk = 20;

    Probes(rt::Fleet &fleet, const ppep::trace::ReplayFile *replay)
        : fleet_(fleet), replay_(replay),
          probes_(fleet.spec().sessions.size())
    {
        for (std::size_t i = 0; i < probes_.size(); ++i)
            build(i);
    }

    /** Drive every probe one chunk. Appends the chunk's interval
     *  latencies, less the first, which also pays for drive()'s loop
     *  set-up. */
    void group(std::vector<double> &out, Check &check,
               const std::vector<std::uint64_t> &want)
    {
        const std::size_t intervals = fleet_.spec().intervals;
        for (std::size_t i = 0; i < probes_.size(); ++i) {
            Probe &p = *probes_[i];
            const std::size_t n = std::min(kChunk, intervals - p.done);
            p.stamps.stamps().clear();
            p.session->drive(n);
            p.done += n;
            const auto &t = p.stamps.stamps();
            for (std::size_t k = 1; k < t.size(); ++k)
                out.push_back(t[k] - t[k - 1]);
            if (p.done == intervals) {
                check.digests({p.digest.digest()}, {want[i]});
                build(i);
            }
        }
    }

  private:
    struct Probe
    {
        StampSink stamps;
        rt::DigestSink digest;
        std::optional<ppep::trace::ReplaySource> frames;
        std::optional<rt::Session> session;
        std::size_t done = 0;
    };

    void build(std::size_t i)
    {
        const rt::FleetSpec &spec = fleet_.spec();
        const rt::FleetSessionSpec &ss = spec.sessions[i];
        const ppep::sim::ChipConfig &cfg = ss.cfg ? *ss.cfg : spec.cfg;
        probes_[i] = std::make_unique<Probe>();
        Probe &p = *probes_[i];
        p.stamps.stamps().reserve(kChunk);
        auto builder = rt::Session::builder(cfg)
                           .seed(ss.seed)
                           .pg(ss.pg)
                           .sharedModels(fleet_.models(), fleet_.ppepOf(i))
                           .sink(p.stamps)
                           .sink(p.digest);
        if (!ss.one_per_cu.empty())
            builder.onePerCu(ss.one_per_cu);
        if (replay_) {
            p.frames.emplace(*replay_, streamOf(*replay_, ss.name),
                             rt::platformFingerprint(cfg));
            builder.replay(*p.frames);
        }
        p.session.emplace(builder.build());
    }

    rt::Fleet &fleet_;
    const ppep::trace::ReplayFile *replay_;
    std::vector<std::unique_ptr<Probe>> probes_;
};

/** Power MAE (prediction-weighted) and cap adherence over sessions. */
void
accuracyOf(const rt::FleetResult &r, double &mae_w, double &adherence)
{
    double err = 0.0, n_pred = 0.0, adh = 0.0, n_iv = 0.0;
    for (const auto &s : r.sessions) {
        const auto &sum = s.summary;
        if (sum.predicted_intervals > 0) {
            err += sum.power_mae_w *
                   static_cast<double>(sum.predicted_intervals);
            n_pred += static_cast<double>(sum.predicted_intervals);
        }
        adh += sum.cap_adherence * static_cast<double>(sum.intervals);
        n_iv += static_cast<double>(sum.intervals);
    }
    mae_w = n_pred > 0 ? err / n_pred : 0.0;
    adherence = n_iv > 0 ? adh / n_iv : 0.0;
}

struct RunResult
{
    std::vector<Metric> metrics;
    Check check;
    std::size_t interval_samples = 0;
    std::size_t passes = 0;
    std::size_t setup_reps = 1;
};

/** --trace 0: the end-to-end metrics, tracing off. */
RunResult
runEndToEnd(Plan &plan, const Options &opt)
{
    RunResult out;
    RoundClock rounds;
    rounds.watch(plan.spec);

    // The first cold set-up serves the run; the others are spread over
    // the timed loop, so setup_s samples the host across the run.
    const fs::path setup_dir = fs::path(opt.work_dir) / "setup";
    std::vector<double> setups;
    Setup setup = coldSetup(plan, setup_dir);
    setups.push_back(setup.total_s);
    rt::Fleet &fleet = *setup.fleet;
    const auto *replay = setup.replay.get();

    // Reference: one worker. Every later pass must reproduce it.
    const rt::FleetResult ref = fleet.run(1);
    const auto want = Check::digestsOf(ref);
    out.check.fleet(ref, want);
    if (plan.kind == Workload::FleetReplay)
        out.check.digests(setup.record_digests, want);
    double mae_w = 0.0, adherence = 0.0;
    accuracyOf(ref, mae_w, adherence);
    std::printf("reference pass: %zu sessions, mean chip power %.2f W",
                ref.sessions.size(), ref.mean_power_w);
    if (ref.arbiter.active)
        std::printf(", final budget %.1f W, %zu violation intervals",
                    ref.arbiter.final_budget_w,
                    ref.arbiter.violation_intervals);
    std::printf("\n");

    // Warm-up pass, then timed passes until the run's time is spent.
    // Interval latency comes in groups of at least 1000 samples: one
    // chunk of every probe session (fleet_sim, fleet_replay) or one
    // pass's lockstep rounds (fleet_budget). Each group gives a p50 and
    // a p99; the run reports their medians, so one disturbed group
    // cannot set them.
    out.check.fleet(fleet.run(plan.workers), want);
    std::vector<double> rates, p50s, p99s;
    std::optional<Probes> probes;
    if (plan.kind != Workload::FleetBudget)
        probes.emplace(fleet, replay);
    const auto add_group = [&](const std::vector<double> &group) {
        out.interval_samples += group.size();
        p50s.push_back(percentile(group, 0.50));
        p99s.push_back(percentile(group, 0.99));
    };
    const double t0 = nowUs();
    while (out.passes < 3 || secondsSince(t0) < opt.seconds) {
        rounds.stamps_us.clear();
        const rt::FleetResult r = fleet.run(plan.workers);
        out.check.fleet(r, want);
        rates.push_back(r.intervals_per_s);
        if (probes) {
            // Probe groups for half as long as the pass took.
            const double p0 = nowUs();
            do {
                std::vector<double> group;
                probes->group(group, out.check, want);
                add_group(group);
            } while (secondsSince(p0) < 0.5 * r.wall_s);
        } else {
            std::vector<double> group;
            rounds.appendLatencies(group);
            add_group(group);
        }
        ++out.passes;
        // Extra set-up k is due k / (reps - 1) of the way through.
        if (setups.size() < plan.setup_reps &&
            secondsSince(t0) * static_cast<double>(plan.setup_reps - 1) >=
                opt.seconds * static_cast<double>(setups.size() - 1))
            setups.push_back(
                coldSetup(plan, fs::path(opt.work_dir) / "setup-extra")
                    .total_s);
    }
    out.setup_reps = setups.size();
    std::printf("pass rates (1/s): min %.0f, median %.0f, max %.0f over "
                "%zu passes; %zu latency groups\n",
                percentile(rates, 0.0), median(rates),
                percentile(rates, 1.0), rates.size(), p99s.size());
    std::printf("setup (s): min %.3f, median %.3f, max %.3f over %zu "
                "cold set-ups\n",
                percentile(setups, 0.0), median(setups),
                percentile(setups, 1.0), setups.size());

    out.metrics = {
        {"setup_s", median(setups), "s"},
        {"intervals_per_s", median(rates), "1/s"},
        {"interval_us_p50", median(p50s), "us"},
        {"interval_us_p99", median(p99s), "us"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"power_mae_w", mae_w, "W"},
        {"cap_adherence", adherence, "ratio"},
    };
    return out;
}

/** Wraps every session's policy in a TimingGovernor (fleet_budget's
 *  traced drive runs through Fleet::run itself). */
void
wrapGovernors(rt::FleetSpec &spec, Tracer &tracer)
{
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
        auto &ss = spec.sessions[i];
        const rt::GovernorFactory inner =
            ss.governor ? ss.governor
                        : (spec.default_governor ? spec.default_governor
                                                 : rt::edpGovernor());
        const auto tenants = ss.tenants;
        const bool pg = ss.pg;
        ss.governor = [inner, tenants, pg, i,
                       &tracer](const rt::ModelContext &ctx) {
            auto g = std::make_unique<TimingGovernor>(
                inner(ctx), ctx.ppep, tracer,
                static_cast<std::uint32_t>(i), !ctx.cfg.pg_supported);
            if (!tenants.empty())
                g->attachTenants(ctx.cfg, ctx.models, tenants, pg);
            return g;
        };
    }
}

double
perCall(const LayerTotal &t)
{
    return t.calls ? t.us / static_cast<double>(t.calls) : 0.0;
}

/** --trace 1: the per-layer split from a separate traced drive. */
RunResult
runTraced(Plan &plan, const Options &opt)
{
    RunResult out;
    Tracer tracer;
    RoundClock rounds;
    rounds.watch(plan.spec);

    Setup setup = coldSetup(plan, fs::path(opt.work_dir) / "setup");
    rt::Fleet &fleet = *setup.fleet;
    const auto *replay = setup.replay.get();

    const rt::FleetResult ref = fleet.run(1);
    const auto want = Check::digestsOf(ref);
    out.check.fleet(ref, want);
    if (plan.kind == Workload::FleetReplay)
        out.check.digests(setup.record_digests, want);
    double faults = 0.0, degraded = 0.0, intervals = 0.0;
    for (const auto &s : ref.sessions) {
        faults += static_cast<double>(s.summary.fault_events);
        degraded += static_cast<double>(s.summary.degraded_intervals);
        intervals += static_cast<double>(s.summary.intervals);
    }

    // Untraced passes, then traced passes, half the time each.
    out.check.fleet(fleet.run(plan.workers), want);
    std::vector<double> untraced, busy, session_ms;
    const double half = opt.seconds / 2.0;
    double t0 = nowUs();
    while (untraced.size() < 2 || secondsSince(t0) < half) {
        const rt::FleetResult r = fleet.run(plan.workers);
        out.check.fleet(r, want);
        untraced.push_back(r.intervals_per_s);
        double wall_sum = 0.0;
        for (const auto &s : r.sessions) {
            wall_sum += s.wall_s;
            session_ms.push_back(s.wall_s * 1e3);
        }
        busy.push_back(wall_sum / (static_cast<double>(plan.workers) *
                                   r.wall_s));
    }

    std::vector<double> traced;
    rt::ArbiterReport report;
    double arbiter_us = 0.0;
    std::size_t round_count = 0;
    std::unique_ptr<rt::Fleet> traced_fleet;
    if (plan.kind == Workload::FleetBudget) {
        rt::FleetSpec spec = fleet.spec();
        wrapGovernors(spec, tracer);
        traced_fleet = std::make_unique<rt::Fleet>(std::move(spec));
        traced_fleet->prepare();
        tracer.round = &rounds.round;
        rounds.tracer = &tracer;
    }
    t0 = nowUs();
    while (traced.size() < 2 || secondsSince(t0) < half) {
        tracer.setKeepSpans(traced.empty());
        if (traced_fleet) {
            rounds.stamps_us.clear();
            const rt::FleetResult r = traced_fleet->run(plan.workers);
            out.check.fleet(r, want);
            traced.push_back(r.intervals_per_s);
            report = r.arbiter;
            arbiter_us += r.arbiter.mean_decide_s * 1e6 *
                          static_cast<double>(r.arbiter.intervals);
            round_count += r.arbiter.intervals;
        } else {
            const TracedPass p =
                runTracedPass(fleet, replay, plan.workers, tracer);
            out.check.digests(p.digests, want);
            traced.push_back(static_cast<double>(p.intervals) / p.wall_s);
        }
    }
    out.passes = untraced.size() + traced.size();

    // Self times. A session interval covers acquire, decide (explore
    // inside), the explore/attribute probes and encode; a lockstep
    // round covers every worker, so its time is workers x round wall.
    const LayerTotal iv = tracer.total(kInterval);
    const LayerTotal acq = tracer.total(kAcquire);
    const LayerTotal dec = tracer.total(kDecide);
    const LayerTotal exp = tracer.total(kExplore);
    const LayerTotal att = tracer.total(kAttribute);
    const LayerTotal act = tracer.total(kActuate);
    const LayerTotal enc = tracer.total(kEncode);
    const LayerTotal blk = tracer.total(kBlocked);
    const double decide_self = std::max(0.0, dec.us - exp.us);
    double acquire_us = acq.us;
    double acquire_calls = static_cast<double>(acq.calls);
    double interval_us = iv.us;
    if (plan.kind == Workload::FleetBudget) {
        // The lockstep drive offers no hook around acquisition: it is
        // the workers' CPU time between decide phases, less the
        // arbiter's decide and one telemetry fan-out per gap.
        const double gaps = static_cast<double>(tracer.crossGaps());
        acquire_us = std::max(0.0, tracer.crossCpuUs() - arbiter_us -
                                       gaps * perCall(enc));
        acquire_calls = static_cast<double>(dec.calls);
        interval_us = iv.us * static_cast<double>(plan.workers);
    }
    const double attributed = acquire_us + dec.us + exp.us + att.us +
                              act.us + enc.us + blk.us +
                              (plan.kind == Workload::FleetBudget
                                   ? arbiter_us
                                   : 0.0);
    const double unattributed = interval_us - attributed;
    const auto decide_samples = tracer.decideSamples();
    std::vector<double> decide_d(decide_samples.begin(),
                                 decide_samples.end());

    std::printf("\nself time per layer, %s (traced, %zu workers, %llu "
                "intervals):\n",
                workloadName(plan.kind), plan.workers,
                static_cast<unsigned long long>(
                    plan.kind == Workload::FleetBudget ? round_count
                                                       : iv.calls));
    std::printf("  %-26s %12s %8s %10s\n", "layer", "self ms", "share",
                "calls");
    const auto row = [&](const char *name, double us, double calls) {
        std::printf("  %-26s %12.3f %7.2f%% %10.0f\n", name, us * 1e-3,
                    interval_us > 0 ? 100.0 * us / interval_us : 0.0,
                    calls);
    };
    row("acquire", acquire_us, acquire_calls);
    row("explore (in decide)", exp.us, static_cast<double>(exp.calls));
    row("decide (explore excluded)", decide_self,
        static_cast<double>(dec.calls));
    row("explore probe (tracing)", exp.us, static_cast<double>(exp.calls));
    row("attribute probe (tracing)", att.us,
        static_cast<double>(att.calls));
    if (act.calls)
        row("actuate (loop after decide)", act.us,
            static_cast<double>(act.calls));
    row("encode", enc.us, static_cast<double>(enc.calls));
    if (plan.kind == Workload::FleetBudget) {
        row("arbitrate decide", arbiter_us,
            static_cast<double>(round_count));
        row("barrier / blocked", blk.us, static_cast<double>(blk.calls));
    }
    row("unattributed", unattributed, 0.0);
    row("total", interval_us, 0.0);

    const fs::path trace_path =
        fs::path(opt.out_dir) / (std::string(workloadName(plan.kind)) +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".trace.json");
    tracer.writeChromeTrace(trace_path.string(), 100000);
    std::printf("spans: %s\n", trace_path.c_str());

    const auto fx = tracer.decideOf("fx");
    const auto ph = tracer.decideOf("phenom");
    const double n_iv = std::max(1.0, intervals);
    const double us_per_interval_base =
        std::max(1.0, acquire_calls);
    out.metrics = {
        {"acquire.us_per_interval", acquire_us / us_per_interval_base, "us"},
        {"acquire.share", interval_us > 0 ? acquire_us / interval_us : 0.0,
         "ratio"},
        {"acquire.calls", acquire_calls, "count"},
        {"sampler.fault_events_per_kinterval", 1e3 * faults / n_iv,
         "1/kinterval"},
        {"health.degraded_ratio", degraded / n_iv, "ratio"},
        {"explore.us_per_call", perCall(exp), "us"},
        {"explore.calls", static_cast<double>(exp.calls), "count"},
        {"decide.us_per_call",
         dec.calls ? decide_self / static_cast<double>(dec.calls) : 0.0,
         "us"},
        {"decide.us_p99", percentile(decide_d, 0.99), "us"},
        {"decide.fx.us_per_call", perCall(fx), "us"},
        {"decide.phenom.us_per_call", perCall(ph), "us"},
        {"decide.calls", static_cast<double>(dec.calls), "count"},
        {"arbitrate.decide_us", ref.arbiter.active ? report.mean_decide_s * 1e6
                                                   : 0.0,
         "us"},
        {"arbitrate.barrier_wait_us_per_interval", perCall(blk), "us"},
        {"arbitrate.violation_intervals",
         static_cast<double>(ref.arbiter.violation_intervals), "count"},
        {"arbitrate.infeasible_intervals",
         static_cast<double>(ref.arbiter.infeasible_intervals), "count"},
        {"settle_intervals", ref.arbiter.mean_settle_intervals,
         "intervals"},
        {"attribute.us_per_call", perCall(att), "us"},
        {"attribute.calls", static_cast<double>(att.calls), "count"},
        {"actuate.us_per_interval", perCall(act), "us"},
        {"encode.us_per_interval", perCall(enc), "us"},
        {"encode.calls", static_cast<double>(enc.calls), "count"},
        {"setup.train_s", setup.train_s, "s"},
        {"setup.prepare_s", setup.prepare_s, "s"},
        {"setup.record_s", setup.record_s, "s"},
        {"setup.replay_open_s", setup.replay_open_s, "s"},
        {"setup.model_entries",
         static_cast<double>(fleet.modelEntryCount()), "count"},
        // A lockstep session lives for the whole pass, so on
        // fleet_budget the pool's busy share is the unblocked share of
        // worker time instead.
        {"fleet.worker_busy_ratio",
         plan.kind == Workload::FleetBudget
             ? (interval_us > 0 ? 1.0 - blk.us / interval_us : 0.0)
             : median(busy),
         "ratio"},
        {"fleet.session_ms_p50", percentile(session_ms, 0.5), "ms"},
        {"fleet.session_ms_max", percentile(session_ms, 1.0), "ms"},
        {"trace.overhead_ratio", median(traced) / median(untraced),
         "ratio"},
        {"trace.unattributed_share",
         interval_us > 0 ? unattributed / interval_us : 0.0, "ratio"},
    };
    return out;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--quick") {
            opt.quick = true;
        } else if (!has_value) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            return false;
        } else if (a == "--workload") {
            if (!parseWorkload(argv[++i], opt.workload)) {
                std::fprintf(stderr, "unknown workload '%s'\n", argv[i]);
                return false;
            }
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--work-dir") {
            opt.work_dir = argv[++i];
        } else if (a == "--out-dir") {
            opt.out_dir = argv[++i];
        } else if (a == "--revision") {
            opt.revision = argv[++i];
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return false;
        }
    }
    return true;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                                       "\"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;
    fs::create_directories(opt.out_dir);
    Plan plan = makePlan(opt.workload, opt.seed, opt.quick);
    if (opt.trace)
        plan.workers = plan.trace_workers;

    const RunResult r =
        opt.trace ? runTraced(plan, opt) : runEndToEnd(plan, opt);
    fs::remove_all(opt.work_dir);

    const bool correct = r.check.failed == 0;
    const std::string metrics = metricsJson(r.metrics);
    const std::string name = workloadName(opt.workload);

    std::printf("\n%s seed %llu (%s):\n", name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "end to end");
    for (const auto &m : r.metrics)
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  passes %zu, interval latency samples %zu, sessions "
                "attempted %zu, failed %zu\n",
                r.passes, r.interval_samples, r.check.attempted,
                r.check.failed);

    // The stamped result: who measured what, on which host and build.
    const fs::path result_path =
        fs::path(opt.out_dir) / (name + "-seed" + std::to_string(opt.seed) +
                                 "-trace" + (opt.trace ? "1" : "0") +
                                 ".json");
    if (std::FILE *f = std::fopen(result_path.c_str(), "w")) {
        std::fprintf(
            f,
            "{\"stamp\": {\"nproc\": %u, \"workers\": %zu, "
            "\"build_type\": \"%s\", \"compiler\": \"%s\", "
            "\"workload\": \"%s\", \"seed\": %llu, \"revision\": \"%s\", "
            "\"trace\": %d, \"quick\": %s, \"seconds\": %.17g, "
            "\"sessions\": %zu, \"intervals\": %zu},\n"
            " \"passes\": %zu, \"interval_samples\": %zu, "
            "\"setup_reps\": %zu,\n"
            " \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n"
            " \"metrics\": %s}\n",
            std::thread::hardware_concurrency(), plan.workers,
            PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, name.c_str(),
            static_cast<unsigned long long>(opt.seed),
            opt.revision.c_str(), opt.trace ? 1 : 0,
            opt.quick ? "true" : "false", opt.seconds,
            plan.spec.sessions.size(), plan.spec.intervals, r.passes,
            r.interval_samples, r.setup_reps, correct ? "true" : "false",
            r.check.attempted, r.check.failed, metrics.c_str());
        std::fclose(f);
    }
    std::printf("result: %s\n", result_path.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", r.check.attempted,
                r.check.failed, metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
