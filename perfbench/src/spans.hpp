/**
 * @file
 * In-memory span tracing for the traced benchmark run, built only on
 * the library's public extension points: a timing IntervalSource handed
 * to governor::GovernorLoop, a timing Governor given through
 * Session::Builder::governor(Governor&) or a FleetSessionSpec factory,
 * and a timing telemetry fan-out. Spans stay in per-thread buffers and
 * are written out (Chrome trace-event JSON) when the run ends.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/trace/collector.hpp"

namespace perfbench {

/** Monotonic host time, microseconds. */
double nowUs();

/** This thread's CPU time, microseconds. */
double threadCpuUs();

/** Pipeline layers a span can belong to. */
enum Layer : std::uint8_t
{
    kInterval,  ///< one governed interval (session) or lockstep round
    kAcquire,   ///< IntervalSource::collectIntervalInto
    kDecide,    ///< Governor::decideInto (explore inside)
    kExplore,   ///< one Ppep::exploreInto on the same record (probe)
    kAttribute, ///< TenantAttributor::attributeInto (probe)
    kActuate,   ///< GovernorLoop after the policy: actuation, dispatch
    kEncode,    ///< telemetry fan-out: digest + summary
    kBlocked,   ///< worker wall minus CPU between lockstep phases
    kLayerCount
};

const char *layerName(Layer l);

/** Session id used for fleet-wide spans (lockstep rounds). */
constexpr std::uint32_t kFleetSpan = 0xffffffffu;

struct Span
{
    double t0_us = 0.0;
    double t1_us = 0.0;
    std::uint32_t session = 0;
    std::uint32_t interval = 0;
    Layer layer = kInterval;
};

struct LayerTotal
{
    double us = 0.0;
    std::uint64_t calls = 0;
};

/** One thread's spans and running totals. */
struct ThreadTrace
{
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    LayerTotal totals[kLayerCount];
    LayerTotal decide_fx;
    LayerTotal decide_phenom;
    std::vector<float> decide_us;
    // Lockstep bookkeeping (fleet_budget): the worker's last decide
    // exit, so the next decide entry can split the gap.
    bool has_exit = false;
    std::uint64_t exit_round = 0;
    double exit_wall_us = 0.0;
    double exit_cpu_us = 0.0;
    /** CPU time between a worker's decide phases (acquire, telemetry,
     *  the arbiter when this worker completed the barrier). */
    double cross_cpu_us = 0.0;
    std::uint64_t cross_gaps = 0;
};

/**
 * Per-thread span buffers for one traced run. Spans are kept while
 * setKeepSpans(true) is in force (the first traced pass, for the trace
 * file); the totals always accumulate.
 */
class Tracer
{
  public:
    /** The calling thread's buffer, registered on first use. */
    ThreadTrace &local();

    void record(Layer l, std::uint32_t session, std::uint32_t interval,
                double t0_us, double t1_us);

    void setKeepSpans(bool on) { keep_spans_.store(on); }

    /** Lockstep round counter (fleet_budget); advanced by the arbiter
     *  observer, read by the timing governors. Null elsewhere. */
    std::atomic<std::uint64_t> *round = nullptr;

    /** Sum over threads. */
    LayerTotal total(Layer l) const;
    LayerTotal decideOf(const char *platform) const;
    double crossCpuUs() const;
    std::uint64_t crossGaps() const;
    std::vector<float> decideSamples() const;

    /** Chrome trace-event JSON ("X" events, µs), at most @p limit. */
    void writeChromeTrace(const std::string &path, std::size_t limit) const;

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
    std::atomic<bool> keep_spans_{false};
};

/** Times the wrapped source's interval acquisition. */
class TimingSource final : public ppep::trace::IntervalSource
{
  public:
    TimingSource(ppep::trace::IntervalSource &inner, Tracer &tracer,
                 std::uint32_t session)
        : inner_(inner), tracer_(tracer), session_(session)
    {
    }

    ppep::trace::IntervalRecord collectInterval() override;
    void collectIntervalInto(ppep::trace::IntervalRecord &rec) override;

  private:
    ppep::trace::IntervalSource &inner_;
    Tracer &tracer_;
    std::uint32_t session_;
    std::uint32_t interval_ = 0;
};

/**
 * Times the wrapped policy's decideInto(), then probes one
 * Ppep::exploreInto (and, for tenant sessions, one attributeInto) on
 * the same record so the decide span can be split into explore and the
 * rest. In a lockstep fleet it also splits each gap between two of the
 * worker's decide calls into CPU time and blocked time.
 */
class TimingGovernor final : public ppep::governor::Governor
{
  public:
    TimingGovernor(std::unique_ptr<ppep::governor::Governor> inner,
                   const ppep::model::Ppep &ppep, Tracer &tracer,
                   std::uint32_t session, bool phenom);

    /** Probe tenant attribution too, over the session's own tenants;
     *  @p cfg and @p models must outlive the governor. */
    void attachTenants(const ppep::sim::ChipConfig &cfg,
                       const ppep::model::TrainedModels &models,
                       std::vector<ppep::runtime::TenantSpec> specs,
                       bool pg_enabled);

    std::vector<std::size_t> decide(const ppep::trace::IntervalRecord &rec,
                                    double cap_w) override;
    void decideInto(const ppep::trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) override;
    std::string name() const override { return inner_->name(); }
    std::optional<ppep::sim::VfState> decideNb() override
    {
        return inner_->decideNb();
    }
    const std::vector<ppep::model::VfPrediction> *
    lastExploration() const override
    {
        return inner_->lastExploration();
    }
    double lastPredictedPower() const override
    {
        return inner_->lastPredictedPower();
    }

    /** Host time the latest decideInto() (probes included) returned. */
    double exitUs() const { return exit_us_; }

  private:
    std::unique_ptr<ppep::governor::Governor> inner_;
    const ppep::model::Ppep &ppep_;
    Tracer &tracer_;
    std::uint32_t session_;
    bool phenom_;
    std::uint32_t interval_ = 0;
    double exit_us_ = 0.0;
    std::vector<ppep::model::VfPrediction> probe_out_;
    ppep::model::ExploreScratch probe_scratch_;
    std::optional<ppep::runtime::TenantAttributor> attributor_;
    bool pg_enabled_ = false;
    ppep::runtime::TenantAttribution attribution_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
