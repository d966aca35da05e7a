#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"

namespace perfbench {

namespace gov = ppep::governor;
namespace rt = ppep::runtime;

namespace {

/** One session of a traced pass; returns its telemetry digest. */
std::uint64_t
runTracedSession(rt::Fleet &fleet, const ppep::trace::ReplayFile *replay,
                 std::size_t index, Tracer &tracer)
{
    const rt::FleetSpec &spec = fleet.spec();
    const rt::FleetSessionSpec &ss = spec.sessions[index];
    const ppep::sim::ChipConfig &cfg = ss.cfg ? *ss.cfg : spec.cfg;
    const auto &models = fleet.models();
    const auto &ppep = fleet.ppepOf(index);
    const auto session_id = static_cast<std::uint32_t>(index);

    const rt::GovernorFactory factory =
        ss.governor ? ss.governor
                    : (spec.default_governor ? spec.default_governor
                                             : rt::edpGovernor());
    TimingGovernor timed(
        factory(rt::ModelContext{cfg, models, ppep, spec.training_seed}),
        ppep, tracer, session_id, !cfg.pg_supported);

    auto builder = rt::Session::builder(cfg)
                       .seed(ss.seed)
                       .pg(ss.pg)
                       .sharedModels(models, ppep)
                       .governor(timed);
    if (!ss.one_per_cu.empty())
        builder.onePerCu(ss.one_per_cu);
    std::optional<ppep::trace::ReplaySource> frames;
    if (replay) {
        frames.emplace(*replay, streamOf(*replay, ss.name),
                       rt::platformFingerprint(cfg));
        builder.replay(*frames);
    }
    rt::Session session = builder.build();

    ppep::trace::Collector collector(session.chip());
    TimingSource source(frames ? static_cast<ppep::trace::IntervalSource &>(
                                     *frames)
                               : collector,
                        tracer, session_id);
    gov::GovernorLoop loop(session.chip(), session.policy(), source);

    // The telemetry fan-out of a plain (or replayed) Session interval:
    // the same fields Session::drive hands its sinks.
    rt::DigestSink digest;
    rt::SummarySink summary;
    std::size_t index_in_run = 0;
    double pending_pred = std::nan("");
    double interval_start = nowUs();
    const auto observer = [&](const gov::GovernorStep &step,
                              double latency_s) {
        const double t0 = nowUs();
        const auto iv = static_cast<std::uint32_t>(index_in_run);
        tracer.record(kActuate, session_id, iv, timed.exitUs(), t0);
        rt::IntervalTelemetry t;
        t.index = index_in_run++;
        if (frames) {
            t.time_s = frames->frameTimeS();
            t.cu_vf = &step.rec.cu_vf;
        } else {
            t.time_s = std::max(0.0, session.chip().timeS() -
                                         step.rec.duration_s);
            t.cu_vf = &step.cu_vf;
        }
        t.rec = &step.rec;
        t.cap_w = step.cap_w;
        t.predicted_power_w = pending_pred;
        t.exploration = timed.lastExploration();
        t.decision_latency_s = latency_s;
        digest.onInterval(t);
        summary.onInterval(t);
        pending_pred = timed.lastPredictedPower();
        const double t1 = nowUs();
        tracer.record(kEncode, session_id, iv, t0, t1);
        tracer.record(kInterval, session_id, iv, interval_start, t1);
        interval_start = t1;
    };
    loop.drive(spec.intervals, gov::CapSchedule::unlimited(), observer);
    return digest.digest();
}

} // namespace

std::size_t
streamOf(const ppep::trace::ReplayFile &file, const std::string &name)
{
    for (std::size_t s = 0; s < file.streamCount(); ++s)
        if (file.stream(s).name == name)
            return s;
    throw std::runtime_error("replay file has no stream for " + name);
}

TracedPass
runTracedPass(rt::Fleet &fleet, const ppep::trace::ReplayFile *replay,
              std::size_t workers, Tracer &tracer)
{
    const std::size_t n = fleet.spec().sessions.size();
    TracedPass out;
    out.digests.assign(n, 0);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failed{0};
    const auto t0 = std::chrono::steady_clock::now();
    auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                out.digests[i] = runTracedSession(fleet, replay, i, tracer);
            } catch (const std::exception &) {
                ++failed;
            }
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(work);
    for (auto &th : pool)
        th.join();
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.failed = failed.load();
    out.intervals = (n - out.failed) * fleet.spec().intervals;
    return out;
}

} // namespace perfbench
