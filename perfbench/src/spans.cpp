#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace perfbench {

double
nowUs()
{
    using namespace std::chrono;
    return duration<double, std::micro>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuUs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
}

const char *
layerName(Layer l)
{
    switch (l) {
    case kInterval:
        return "interval";
    case kAcquire:
        return "acquire";
    case kDecide:
        return "decide";
    case kExplore:
        return "explore";
    case kAttribute:
        return "attribute";
    case kActuate:
        return "actuate";
    case kEncode:
        return "encode";
    case kBlocked:
        return "blocked";
    case kLayerCount:
        break;
    }
    return "?";
}

ThreadTrace &
Tracer::local()
{
    // One buffer per (tracer, thread); fleet passes start fresh worker
    // threads, which register fresh buffers.
    thread_local Tracer *owner = nullptr;
    thread_local ThreadTrace *mine = nullptr;
    if (owner != this || mine == nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        threads_.push_back(std::make_unique<ThreadTrace>());
        mine = threads_.back().get();
        mine->tid = static_cast<std::uint32_t>(threads_.size());
        mine->spans.reserve(1 << 14);
        owner = this;
    }
    return *mine;
}

void
Tracer::record(Layer l, std::uint32_t session, std::uint32_t interval,
               double t0_us, double t1_us)
{
    ThreadTrace &t = local();
    t.totals[l].us += t1_us - t0_us;
    ++t.totals[l].calls;
    if (keep_spans_.load(std::memory_order_relaxed))
        t.spans.push_back({t0_us, t1_us, session, interval, l});
}

LayerTotal
Tracer::total(Layer l) const
{
    std::lock_guard<std::mutex> lock(mu_);
    LayerTotal out;
    for (const auto &t : threads_) {
        out.us += t->totals[l].us;
        out.calls += t->totals[l].calls;
    }
    return out;
}

LayerTotal
Tracer::decideOf(const char *platform) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const bool phenom = std::string(platform) == "phenom";
    LayerTotal out;
    for (const auto &t : threads_) {
        const LayerTotal &d = phenom ? t->decide_phenom : t->decide_fx;
        out.us += d.us;
        out.calls += d.calls;
    }
    return out;
}

double
Tracer::crossCpuUs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double out = 0.0;
    for (const auto &t : threads_)
        out += t->cross_cpu_us;
    return out;
}

std::uint64_t
Tracer::crossGaps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t out = 0;
    for (const auto &t : threads_)
        out += t->cross_gaps;
    return out;
}

std::vector<float>
Tracer::decideSamples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<float> out;
    for (const auto &t : threads_)
        out.insert(out.end(), t->decide_us.begin(), t->decide_us.end());
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path, std::size_t limit) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    double base = 0.0;
    bool have_base = false;
    for (const auto &t : threads_)
        for (const Span &s : t->spans)
            if (!have_base || s.t0_us < base) {
                base = s.t0_us;
                have_base = true;
            }
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    std::size_t written = 0;
    for (const auto &t : threads_) {
        for (const Span &s : t->spans) {
            if (written == limit)
                break;
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"ppep\",\"ph\":"
                         "\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                         "\"dur\":%.3f,\"args\":{\"session\":%lld,"
                         "\"interval\":%u}}",
                         written ? "," : "", layerName(s.layer), t->tid,
                         s.t0_us - base, s.t1_us - s.t0_us,
                         s.session == kFleetSpan
                             ? -1LL
                             : static_cast<long long>(s.session),
                         s.interval);
            ++written;
        }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

ppep::trace::IntervalRecord
TimingSource::collectInterval()
{
    ppep::trace::IntervalRecord rec;
    collectIntervalInto(rec);
    return rec;
}

void
TimingSource::collectIntervalInto(ppep::trace::IntervalRecord &rec)
{
    const double t0 = nowUs();
    inner_.collectIntervalInto(rec);
    tracer_.record(kAcquire, session_, interval_++, t0, nowUs());
}

TimingGovernor::TimingGovernor(
    std::unique_ptr<ppep::governor::Governor> inner,
    const ppep::model::Ppep &ppep, Tracer &tracer, std::uint32_t session,
    bool phenom)
    : inner_(std::move(inner)), ppep_(ppep), tracer_(tracer),
      session_(session), phenom_(phenom)
{
}

void
TimingGovernor::attachTenants(const ppep::sim::ChipConfig &cfg,
                              const ppep::model::TrainedModels &models,
                              std::vector<ppep::runtime::TenantSpec> specs,
                              bool pg_enabled)
{
    attributor_.emplace(cfg, models.dynamic, models.pg, std::move(specs));
    attribution_ = attributor_->makeAttribution();
    pg_enabled_ = pg_enabled;
}

std::vector<std::size_t>
TimingGovernor::decide(const ppep::trace::IntervalRecord &rec, double cap_w)
{
    std::vector<std::size_t> out;
    decideInto(rec, cap_w, out);
    return out;
}

void
TimingGovernor::decideInto(const ppep::trace::IntervalRecord &rec,
                           double cap_w, std::vector<std::size_t> &out)
{
    ThreadTrace &tt = tracer_.local();
    const std::uint32_t iv = interval_++;
    const double t0 = nowUs();
    if (tracer_.round) {
        // Lockstep: split the gap since this worker's previous decide.
        // Inside one round the gap is the previous session's telemetry
        // fan-out; across a round it is the worker's acquisitions plus
        // the barrier, whose blocked part shows as wall minus CPU.
        const double cpu = threadCpuUs();
        const std::uint64_t round = tracer_.round->load();
        if (tt.has_exit && round == tt.exit_round) {
            tracer_.record(kEncode, session_, iv, tt.exit_wall_us, t0);
        } else if (tt.has_exit) {
            const double cpu_gap = cpu - tt.exit_cpu_us;
            const double blocked =
                std::max(0.0, (t0 - tt.exit_wall_us) - cpu_gap);
            tt.cross_cpu_us += cpu_gap;
            ++tt.cross_gaps;
            tracer_.record(kBlocked, kFleetSpan, iv, t0 - blocked, t0);
        }
        tt.exit_round = round;
    }

    inner_->decideInto(rec, cap_w, out);
    const double t1 = nowUs();
    tracer_.record(kDecide, session_, iv, t0, t1);

    ppep_.exploreInto(rec, probe_out_, probe_scratch_);
    double t2 = nowUs();
    tracer_.record(kExplore, session_, iv, t1, t2);
    // Decide self time: the decide span less the exploration it ran,
    // estimated by the probe on the same record.
    const double self_us = std::max(0.0, (t1 - t0) - (t2 - t1));
    LayerTotal &plat = phenom_ ? tt.decide_phenom : tt.decide_fx;
    plat.us += self_us;
    ++plat.calls;
    tt.decide_us.push_back(static_cast<float>(self_us));
    if (attributor_) {
        attributor_->attributeInto(rec, pg_enabled_, attribution_);
        const double t3 = nowUs();
        tracer_.record(kAttribute, session_, iv, t2, t3);
        t2 = t3;
    }
    exit_us_ = t2;
    if (tracer_.round) {
        tt.has_exit = true;
        tt.exit_wall_us = t2;
        tt.exit_cpu_us = threadCpuUs();
    }
}

} // namespace perfbench
