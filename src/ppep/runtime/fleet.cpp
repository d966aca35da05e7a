#include "ppep/runtime/fleet.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <filesystem>
#include <memory>
#include <set>
#include <string_view>

#include "ppep/model/trainer.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/util/parallel.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::runtime {

namespace {

using clock = std::chrono::steady_clock;

double
secondsSince(clock::time_point t0)
{
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/**
 * Run @p f, recording anything it throws into @p res.error instead of
 * letting it escape: a failing session must not take the pool down.
 * Returns false when @p f threw.
 */
template <typename F>
bool
captureFailure(FleetSessionResult &res, F &&f)
{
    try {
        f();
        return true;
    } catch (const std::exception &e) {
        res.error = e.what();
    } catch (...) {
        res.error = "unknown exception";
    }
    return false;
}

} // namespace

Fleet::Fleet(FleetSpec spec) : spec_(std::move(spec))
{
    PPEP_ASSERT(!spec_.sessions.empty(), "fleet has no sessions");
    PPEP_ASSERT(spec_.intervals > 0, "fleet intervals must be positive");
    if (!spec_.replay_path.empty() && !spec_.record_path.empty())
        PPEP_FATAL("a fleet cannot record and replay at once");
    for (std::size_t i = 0; i < spec_.sessions.size(); ++i)
        if (spec_.sessions[i].name.empty())
            spec_.sessions[i].name = "s" + std::to_string(i);
    // A session name keys its CSV file and its replay stream, so it
    // must be unique and, when recording or replaying, fit the stream
    // table.
    const bool traced =
        !spec_.record_path.empty() || !spec_.replay_path.empty();
    std::set<std::string_view> names;
    for (const FleetSessionSpec &ss : spec_.sessions) {
        if (!names.insert(ss.name).second)
            PPEP_FATAL("fleet session name '", ss.name,
                       "' is not unique");
        if (traced && ss.name.size() > trace::kMaxStreamNameBytes)
            PPEP_FATAL("fleet session name '", ss.name, "' is longer "
                       "than the ", trace::kMaxStreamNameBytes,
                       " bytes a replay stream name holds");
    }
}

void
Fleet::prepare()
{
    if (!entries_.empty())
        return;
    const auto combos = spec_.training_combos
                            ? *spec_.training_combos
                            : workloads::singleProgramCombinations();

    // Resolve every session's config to a registry entry keyed by the
    // ModelStore platform fingerprint: fingerprint-identical configs
    // share one entry, and each distinct config trains exactly once.
    // The registry is immutable after this loop, so sessions may hold
    // plain const references into it from any worker thread.
    auto acquire = [&](const sim::ChipConfig &cfg) -> std::size_t {
        const std::uint64_t fp = platformFingerprint(cfg);
        for (std::size_t e = 0; e < entries_.size(); ++e)
            if (entries_[e]->fingerprint == fp)
                return e;
        auto entry = std::make_unique<ModelEntry>();
        entry->cfg = cfg;
        entry->fingerprint = fp;
        // Each platform trains on the requested combinations it can host.
        entry->models =
            acquireModels(cfg, spec_.training_seed, combos,
                          spec_.store ? &*spec_.store : nullptr);
        entry->ppep.emplace(cfg, entry->models.chip, entry->models.pg);
        entries_.push_back(std::move(entry));
        return entries_.size() - 1;
    };

    session_entry_.resize(spec_.sessions.size());
    for (std::size_t i = 0; i < spec_.sessions.size(); ++i) {
        const auto &ss = spec_.sessions[i];
        session_entry_[i] = acquire(ss.cfg ? *ss.cfg : spec_.cfg);
    }
    const std::uint64_t default_fp = platformFingerprint(spec_.cfg);
    for (std::size_t e = 0; e < entries_.size(); ++e)
        if (entries_[e]->fingerprint == default_fp)
            default_entry_ = e;

    // Warm the workload registry's magic statics on this thread too, so
    // workers never contend on first-touch initialisation.
    (void)workloads::allCombinations();
}

const model::TrainedModels &
Fleet::models() const
{
    PPEP_ASSERT(!entries_.empty(), "prepare() has not run");
    if (default_entry_ == static_cast<std::size_t>(-1))
        PPEP_FATAL("no fleet session uses the default config '",
                   spec_.cfg.name, "'; address its entry via ppepOf()");
    return entries_[default_entry_]->models;
}

const model::Ppep &
Fleet::ppep() const
{
    PPEP_ASSERT(!entries_.empty(), "prepare() has not run");
    if (default_entry_ == static_cast<std::size_t>(-1))
        PPEP_FATAL("no fleet session uses the default config '",
                   spec_.cfg.name, "'; address its entry via ppepOf()");
    return *entries_[default_entry_]->ppep;
}

std::size_t
Fleet::modelEntryCount() const
{
    return entries_.size();
}

std::size_t
Fleet::entryIndexOf(std::size_t index) const
{
    PPEP_ASSERT(index < session_entry_.size(), "prepare() has not run");
    return session_entry_[index];
}

const model::Ppep &
Fleet::ppepOf(std::size_t index) const
{
    return *entryOf(index).ppep;
}

const Fleet::ModelEntry &
Fleet::entryOf(std::size_t index) const
{
    PPEP_ASSERT(index < session_entry_.size(), "prepare() has not run");
    return *entries_[session_entry_[index]];
}

/** Everything one fleet session needs alive while it is driven. */
struct Fleet::Harness
{
    FleetSessionResult res;
    SummarySink summary;
    DigestSink digest;
    std::unique_ptr<CsvSink> csv;
    std::optional<trace::ReplaySource> replay;
    std::optional<Session> session;
    /** Arbitrated drive: set once building or driving the session
     *  threw; the reason is in res.error. */
    bool failed = false;
};

void
Fleet::buildHarness(std::size_t index, Harness &h)
{
    const FleetSessionSpec &ss = spec_.sessions[index];
    h.res.name = ss.name;
    h.res.seed = ss.seed;

    if (!spec_.csv_dir.empty()) {
        const auto path =
            std::filesystem::path(spec_.csv_dir) / (ss.name + ".csv");
        h.csv = std::make_unique<CsvSink>(path.string());
    }

    const ModelEntry &entry = entryOf(index);
    const std::optional<RecalibrationPolicy> &recal =
        ss.recalibration ? ss.recalibration
                         : spec_.default_recalibration;

    auto builder = Session::builder(entry.cfg)
                       .seed(ss.seed)
                       .pg(ss.pg)
                       .sharedModels(entry.models, *entry.ppep)
                       .warmup(spec_.warmup)
                       .sink(h.summary)
                       .sink(h.digest);
    if (h.csv)
        builder.sink(*h.csv);
    if (!spec_.record_path.empty()) {
        // A hardened session's frames carry the health block: the
        // replayed run must reconstruct the same SampleHealth the
        // digest hashed live.
        const bool with_health = ss.faults.has_value() ||
                                 recal.has_value();
        recorders_[index] = std::make_unique<RecorderSink>(
            ss.name, entry.fingerprint, entry.cfg.coreCount(),
            entry.cfg.n_cus, with_health);
        builder.sink(*recorders_[index]);
    }
    if (!spec_.replay_path.empty()) {
        const trace::ReplayFile &file = *replay_file_;
        std::size_t stream = file.streamCount();
        for (std::size_t s = 0; s < file.streamCount(); ++s)
            if (file.stream(s).name == ss.name)
                stream = s;
        if (stream == file.streamCount())
            PPEP_FATAL("replay file '", file.path(),
                       "' has no stream for session '", ss.name, "'");
        h.replay.emplace(file, stream, entry.fingerprint);
        builder.replay(*h.replay);
    }
    if (!ss.jobs.empty())
        builder.jobs(ss.jobs);
    if (!ss.tenants.empty())
        builder.tenants(ss.tenants);
    if (!ss.one_per_cu.empty())
        builder.onePerCu(ss.one_per_cu);
    if (ss.governor)
        builder.governor(ss.governor);
    else if (spec_.default_governor)
        builder.governor(spec_.default_governor);
    if (ss.schedule)
        builder.schedule(*ss.schedule);
    else if (spec_.default_schedule)
        builder.schedule(*spec_.default_schedule);
    if (ss.faults)
        builder.faults(*ss.faults);
    if (ss.fault_seed)
        builder.faultSeed(*ss.fault_seed);
    if (recal) {
        builder.recalibration(*recal);
        // The session's lineage journal rides on the fleet store
        // (safe alongside sharedModels: the shared entry wins model
        // acquisition, the store is only consulted for lineage).
        if (spec_.store)
            builder.store(*spec_.store);
    }

    h.session.emplace(builder.build());
}

void
Fleet::finishHarness(Harness &h)
{
    h.res.sink_errors = h.session->sinkErrors();
    if (h.csv)
        h.csv->close();
    h.res.summary = h.summary.summary();
    h.res.telemetry_digest = h.digest.digest();
    h.res.completed = true;
}

FleetSessionResult
Fleet::runOne(std::size_t index)
{
    const auto t0 = clock::now();
    Harness h;
    captureFailure(h.res, [&] {
        buildHarness(index, h);
        h.res.intervals = h.session->drive(spec_.intervals);
        finishHarness(h);
    });
    h.res.wall_s = secondsSince(t0);
    return h.res;
}

FleetResult
Fleet::run(std::size_t n_threads)
{
    prepare();
    if (!spec_.csv_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec_.csv_dir, ec);
        if (ec)
            PPEP_FATAL("cannot create fleet csv dir '", spec_.csv_dir,
                       "': ", ec.message());
    }
    const std::size_t n_sessions = spec_.sessions.size();
    // Slots are written by whichever worker builds the session; the
    // vector itself never reallocates under the workers.
    recorders_.clear();
    recorders_.resize(n_sessions);
    if (!spec_.replay_path.empty() && !replay_file_)
        replay_file_ =
            std::make_unique<trace::ReplayFile>(spec_.replay_path);

    if (spec_.arbiter)
        return runArbitrated(n_threads);

    FleetResult out;
    const auto t0 = clock::now();

    // Workers claim session indices in order and every result lands in
    // its own slot, so no two threads ever touch the same session,
    // result, model, or chip. The shared Ppep/TrainedModels are
    // read-only by the Session contract.
    out.sessions = util::parallelFor(
        n_sessions, n_threads, [&](std::size_t i) { return runOne(i); });

    finalizeRun(out, secondsSince(t0));
    return out;
}

FleetResult
Fleet::runArbitrated(std::size_t n_threads)
{
    const ArbiterSpec &aspec = *spec_.arbiter;
    const std::size_t n_sessions = spec_.sessions.size();
    FleetResult out;
    out.sessions.resize(n_sessions);
    const auto t0 = clock::now();

    // Build every harness on this thread; a session that fails to
    // build is recorded, excluded from the lockstep, and enters the
    // arbiter with priority 0 so it draws no budget. A session that
    // throws later, inside the lockstep, keeps its lane and is
    // gathered blind for the remaining intervals.
    std::vector<std::unique_ptr<Harness>> harnesses(n_sessions);
    std::vector<clock::time_point> started(n_sessions);
    for (std::size_t i = 0; i < n_sessions; ++i) {
        started[i] = clock::now();
        harnesses[i] = std::make_unique<Harness>();
        Harness &h = *harnesses[i];
        h.failed = !captureFailure(h.res, [&] { buildHarness(i, h); });
    }

    std::vector<FleetArbiter::SessionSetup> setups(n_sessions);
    std::vector<std::size_t> live;
    live.reserve(n_sessions);
    for (std::size_t i = 0; i < n_sessions; ++i) {
        const FleetSessionSpec &ss = spec_.sessions[i];
        auto &su = setups[i];
        if (!harnesses[i]->failed) {
            su.priority = ss.priority;
            su.slo_floor_w = ss.slo_floor_w;
            live.push_back(i);
        } else {
            su.priority = 0.0;
            su.slo_floor_w = 0.0;
        }
        su.tier = ss.tier;
        const sim::ChipConfig &cfg = ss.cfg ? *ss.cfg : spec_.cfg;
        su.n_vf = cfg.vf_table.size();
    }
    const std::unique_ptr<FleetArbiter> arbiter =
        makeArbiter(aspec, setups);

    std::vector<double> cap_sum_w(n_sessions, 0.0);
    std::vector<double> throttled_sum_w(n_sessions, 0.0);

    const std::size_t workers = live.empty()
                                    ? 1
                                    : std::clamp<std::size_t>(
                                          n_threads, 1, live.size());

    // The barrier completion step runs serially (on whichever worker
    // arrived last) once every worker has collected and gathered its
    // slice: the arbiter's decision is a pure function of the gathered
    // SoA table, so fleet telemetry is bit-identical at any worker
    // count. Observers run here too — outside the sessions' annotated
    // regions, like the telemetry hand-off.
    std::size_t interval = 0;
    auto arbitrate = [&]() noexcept {
        // Claim the barrier-serial role: exactly one thread (the last
        // to arrive) runs this completion step, which is what lets
        // decide() stay lock-free yet race-free.
        util::RoleGuard serial(kArbiterSerialRole);
        const auto d0 = clock::now();
        arbiter->decide(interval);
        arbiter->noteDecideSeconds(secondsSince(d0));
        for (std::size_t i = 0; i < n_sessions; ++i) {
            cap_sum_w[i] += arbiter->capOf(i);
            throttled_sum_w[i] += arbiter->throttledOf(i);
        }
        if (aspec.observer) {
            ArbiterIntervalView view;
            view.interval = interval;
            view.budget_w = arbiter->budgetAt(interval);
            view.next_budget_w = arbiter->budgetAt(interval + 1);
            view.caps = arbiter->capsData();
            view.measured = arbiter->measuredData();
            view.n_sessions = n_sessions;
            view.headroom_w = arbiter->headroomLastW();
            view.violation = arbiter->lastViolation();
            aspec.observer(view);
        }
        ++interval;
    };

    if (!live.empty()) {
        // Each interval is the sessions' own collect and decide halves
        // with the barrier between them: every live session measures
        // and gathers its exploration, the arbiter decides, and each
        // session then decides under its allocation.
        std::barrier bar(static_cast<std::ptrdiff_t>(workers),
                         arbitrate);
        util::runWorkers(workers, [&](std::size_t w) {
            // Contiguous slice of the live sessions for this worker.
            const std::size_t lo = live.size() * w / workers;
            const std::size_t hi = live.size() * (w + 1) / workers;
            for (std::size_t iv = 0; iv < spec_.intervals; ++iv) {
                for (std::size_t k = lo; k < hi; ++k) {
                    const std::size_t i = live[k];
                    Harness &h = *harnesses[i];
                    if (!h.failed)
                        h.failed = !captureFailure(h.res, [&] {
                            Session &session = *h.session;
                            const auto &step = session.collect();
                            const auto *ex =
                                session.policy().lastExploration();
                            arbiter->gather(i, ex ? ex->data() : nullptr,
                                            ex ? ex->size() : 0,
                                            step.rec.sensor_power_w);
                        });
                    if (h.failed) // dead session: its lane goes blind
                        arbiter->gather(i, nullptr, 0, 0.0);
                }
                bar.arrive_and_wait();
                for (std::size_t k = lo; k < hi; ++k) {
                    const std::size_t i = live[k];
                    Harness &h = *harnesses[i];
                    if (!h.failed)
                        h.failed = !captureFailure(h.res, [&] {
                            h.session->decide(arbiter->capOf(i));
                        });
                }
            }
        });
    }

    const double intervals_d =
        static_cast<double>(std::max<std::size_t>(1, spec_.intervals));
    for (std::size_t i = 0; i < n_sessions; ++i) {
        Harness &h = *harnesses[i];
        if (!h.failed) {
            h.session->finishSinks();
            h.res.intervals = spec_.intervals;
            finishHarness(h);
            h.res.mean_cap_w = cap_sum_w[i] / intervals_d;
            h.res.final_cap_w = arbiter->capOf(i);
            h.res.mean_throttled_w = throttled_sum_w[i] / intervals_d;
            // Bill throttling to tenants in proportion to their
            // attributed power draw — the tenant that pulled the watts
            // carries the denial.
            const auto &sum = h.res.summary;
            if (!sum.tenant_names.empty()) {
                double total_w = 0.0;
                for (double w : sum.tenant_mean_power_w)
                    total_w += w;
                h.res.tenant_throttled_w.resize(
                    sum.tenant_names.size(), 0.0);
                for (std::size_t t = 0;
                     t < sum.tenant_names.size(); ++t)
                    h.res.tenant_throttled_w[t] =
                        total_w > 0.0
                            ? h.res.mean_throttled_w *
                                  sum.tenant_mean_power_w[t] / total_w
                            : 0.0;
            }
        }
        h.res.wall_s = secondsSince(started[i]);
        out.sessions[i] = std::move(h.res);
    }

    out.arbiter = arbiter->report();
    finalizeRun(out, secondsSince(t0));
    return out;
}

void
Fleet::finalizeRun(FleetResult &out, double wall_s)
{
    out.wall_s = wall_s;
    double power_sum = 0.0;
    for (const auto &r : out.sessions) {
        if (r.completed) {
            ++out.completed;
            out.total_intervals += r.intervals;
            power_sum += r.summary.mean_power_w;
            out.energy_j += r.summary.energy_j;
        } else {
            ++out.failed;
            PPEP_WARN("fleet session '", r.name,
                      "' failed: ", r.error);
        }
    }
    if (out.completed)
        out.mean_power_w =
            power_sum / static_cast<double>(out.completed);
    if (out.wall_s > 0.0) {
        out.sessions_per_s =
            static_cast<double>(out.completed) / out.wall_s;
        out.intervals_per_s =
            static_cast<double>(out.total_intervals) / out.wall_s;
    }
    if (!spec_.record_path.empty()) {
        std::vector<const trace::ReplayStreamBuilder *> streams;
        streams.reserve(recorders_.size());
        for (const auto &r : recorders_)
            if (r)
                streams.push_back(&r->stream());
        trace::writeReplayFile(spec_.record_path, streams);
        recorders_.clear();
    }
}

} // namespace ppep::runtime
