/**
 * @file
 * DVFS policy interface and the interval-granularity control loop.
 *
 * A Governor observes each completed 200 ms interval (counters, sensor
 * power, temperature) plus the active power cap and decides the per-CU VF
 * states for the next interval — the same cadence the paper's daemon
 * runs at. The GovernorLoop owns the measurement/actuation cycle and
 * records the full control trace for Fig. 7-style analysis.
 */

#ifndef PPEP_GOVERNOR_GOVERNOR_HPP
#define PPEP_GOVERNOR_GOVERNOR_HPP

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "ppep/model/ppep.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::governor {

/** A time-varying power cap (square waves, steps, constants). */
class CapSchedule
{
  public:
    /** Constant cap. */
    explicit CapSchedule(double cap_w);

    /**
     * Piecewise-constant schedule: `points[i]` = {start interval, cap}.
     * @pre starts strictly increasing, first start == 0.
     */
    explicit CapSchedule(
        std::vector<std::pair<std::size_t, double>> points);

    /** Cap active during interval @p index. */
    double capAt(std::size_t index) const PPEP_NONBLOCKING;

    /** A schedule with no cap (infinity). */
    static CapSchedule unlimited();

  private:
    std::vector<std::pair<std::size_t, double>> points_;
};

/** Abstract per-interval DVFS policy. */
class Governor
{
  public:
    virtual ~Governor() = default;

    /**
     * Decide the per-CU VF indices to apply for the *next* interval.
     *
     * @param rec   the interval that just completed.
     * @param cap_w the power cap that will be active next interval.
     */
    virtual std::vector<std::size_t>
    decide(const trace::IntervalRecord &rec, double cap_w) = 0;

    /**
     * decide() into a caller-owned vector, reusing its storage — the
     * allocation-free steady-state path. The default forwards to
     * decide(); policies with a hot path override it. Outputs are
     * identical to decide().
     */
    virtual void decideInto(const trace::IntervalRecord &rec, double cap_w,
                            std::vector<std::size_t> &out) PPEP_NONBLOCKING
    {
        // rt-escape: legacy fallback — decide() allocates its result by
        // contract. Policies that run in the fleet steady state override
        // decideInto(); anything still on this default is not RT-safe
        // and is exempted from the runtime check too.
        PPEP_RT_WARMUP_BEGIN
        out = decide(rec, cap_w);
        PPEP_RT_WARMUP_END
    }

    /** Human-readable policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Optional NB operating point for the next interval (coordinated
     * core+NB policies); nullopt leaves the NB untouched. Queried right
     * after decide().
     */
    virtual std::optional<sim::VfState>
    decideNb() PPEP_NONBLOCKING
    {
        return std::nullopt;
    }

    // --- telemetry hooks (ppep::runtime) ---------------------------------

    /**
     * The per-VF exploration computed during the most recent decide(),
     * if this is a PPEP-based global-DVFS policy; nullptr otherwise.
     * Valid until the next decide(). Consumed by telemetry sinks.
     */
    virtual const std::vector<model::VfPrediction> *
    lastExploration() const PPEP_NONBLOCKING
    {
        return nullptr;
    }

    /**
     * Chip power this policy predicts for the interval its most recent
     * decision will govern; NaN when the policy does not predict power.
     */
    virtual double
    lastPredictedPower() const PPEP_NONBLOCKING
    {
        return std::numeric_limits<double>::quiet_NaN();
    }
};

/** One step of a governed run. */
struct GovernorStep
{
    trace::IntervalRecord rec;
    double cap_w = 0.0;                ///< cap active during the interval
    std::vector<std::size_t> cu_vf;    ///< VF applied during the interval
};

/** Measurement/decision/actuation loop. */
class GovernorLoop
{
  public:
    /**
     * Per-step observer: invoked once per completed interval with the
     * finished step and the wall-clock cost of the decide()/decideNb()
     * call that followed it. ppep::runtime::Session uses this to drive
     * its telemetry sinks without duplicating the cycle.
     */
    using StepObserver =
        std::function<void(const GovernorStep &step,
                           double decision_latency_s)>;

    GovernorLoop(sim::Chip &chip, Governor &policy);

    /**
     * Drive the cycle from @p source instead of a plain Collector — the
     * hardened-acquisition hookup (runtime::Sampler). @p source must be
     * bound to the same chip.
     */
    GovernorLoop(sim::Chip &chip, Governor &policy,
                 trace::IntervalSource &source);

    /** Run @p intervals intervals under @p schedule. */
    std::vector<GovernorStep> run(std::size_t intervals,
                                  const CapSchedule &schedule,
                                  const StepObserver &observer = nullptr);

    /**
     * Run @p intervals intervals without retaining the step trace — the
     * steady-state path. One internal step is reused across intervals,
     * so after the first few intervals warm the scratch buffers the loop
     * performs zero heap allocations per interval (given a policy and
     * source with allocation-free Into paths). The observer sees each
     * step exactly as run() would produce it. Returns the number of
     * intervals run.
     */
    std::size_t drive(std::size_t intervals, const CapSchedule &schedule,
                      const StepObserver &observer = nullptr);

    // Split cycle: cycleBegin + source.collectIntervalInto(step.rec) +
    // cycleDecide is exactly cycle(). runtime::Session builds its one
    // governed interval from these halves, so a replay frame can stand
    // in for the collect and a fleet barrier can sit before the decide.

    /** Stamp the step's cap and the VF context active this interval. */
    void cycleBegin(std::size_t index, const CapSchedule &schedule,
                    GovernorStep &step) PPEP_NONBLOCKING;

    /** Decide with the next interval's cap, actuate, time the policy. */
    void cycleDecide(std::size_t index, const CapSchedule &schedule,
                     GovernorStep &step,
                     std::vector<std::size_t> &next_vf,
                     double &latency_s) PPEP_NONBLOCKING;

    /**
     * Externally imposed watt limit layered under the schedule: the
     * effective cap at any interval is min(schedule, limit). The fleet
     * arbiter installs its per-session allocation here each barrier
     * interval; the default (+inf) leaves the schedule alone.
     */
    void setCapLimit(double cap_w) PPEP_NONBLOCKING { cap_limit_ = cap_w; }
    double capLimit() const PPEP_NONBLOCKING { return cap_limit_; }

  private:
    /** One measurement/decision/actuation cycle shared by run/drive.
     *  This is the annotated real-time region: everything reached from
     *  here must be PPEP_NONBLOCKING or an explicit rt-escape. The
     *  observer hand-off lives in run()/drive(), outside the region,
     *  because sinks such as CsvSink perform blocking stream I/O. */
    void cycle(std::size_t index, const CapSchedule &schedule,
               trace::IntervalSource &source, GovernorStep &step,
               std::vector<std::size_t> &next_vf,
               double &latency_s) PPEP_NONBLOCKING;

    /** The injected source, or a lazily-built Collector that persists
     *  across run()/drive() calls so its scratch stays warm. */
    trace::IntervalSource &source();

    sim::Chip &chip_;
    Governor &policy_;
    /** Arbiter-imposed limit; min()'d with the schedule everywhere. */
    double cap_limit_ = std::numeric_limits<double>::max();
    trace::IntervalSource *source_ = nullptr;
    std::optional<trace::Collector> own_collector_;
    /** Scratch reused by drive(). */
    GovernorStep scratch_step_;
    std::vector<std::size_t> scratch_vf_;
};

/** Fraction of intervals whose measured power stayed at or under cap. */
double capAdherence(const std::vector<GovernorStep> &steps);

/**
 * Mean number of intervals taken to get back under a newly-lowered cap
 * (the paper's responsiveness metric; PPEP should achieve ~1).
 */
double meanSettleIntervals(const std::vector<GovernorStep> &steps);

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_GOVERNOR_HPP
