/**
 * @file
 * Per-interval telemetry for governed runs.
 *
 * A TelemetrySink observes a Session's control loop from the outside:
 * once per completed 200 ms interval it receives the measured record,
 * the VF state that produced it, the active cap, the power the governor
 * had predicted for that interval, the per-VF exploration behind the
 * decision just taken, and the wall-clock cost of that decision — the
 * observability surface a production daemon exports.
 *
 * Shipped sinks: CsvSink (spreadsheet-friendly trace), JsonlSink (one
 * JSON object per interval, machine-ingestible), SummarySink (end-of-run
 * aggregates: cap adherence, settle time, VF residency, predicted-vs-
 * measured power MAE, decision latency).
 */

#ifndef PPEP_RUNTIME_TELEMETRY_HPP
#define PPEP_RUNTIME_TELEMETRY_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/util/fmt.hpp"
#include "ppep/util/hash.hpp"

namespace ppep::runtime {

struct TenantAttribution; // runtime/tenant.hpp

/** Everything a sink sees about one completed interval. */
struct IntervalTelemetry
{
    /** Interval number, monotonic across a Session's run() calls. */
    std::size_t index = 0;

    /** Simulated time at the start of the interval, seconds. */
    double time_s = 0.0;

    /** The measured interval (counters, sensor power, diode). */
    const trace::IntervalRecord *rec = nullptr;

    /** Per-CU VF indices applied *during* the interval. */
    const std::vector<std::size_t> *cu_vf = nullptr;

    /** Power cap active during the interval, watts. */
    double cap_w = 0.0;

    /**
     * Chip power the governor predicted for *this* interval when it
     * decided at the end of the previous one; NaN for the first interval
     * and for non-predictive policies.
     */
    double predicted_power_w = std::numeric_limits<double>::quiet_NaN();

    /**
     * The per-VF exploration behind the decision taken at the *end* of
     * this interval (i.e. the sweep that chose the next VF); nullptr for
     * policies that do not explore. Valid only during the callback.
     */
    const std::vector<model::VfPrediction> *exploration = nullptr;

    /** Wall-clock cost of the decide() call that ended the interval. */
    double decision_latency_s = 0.0;

    /**
     * The interval source's health record: the hardened Sampler's, or
     * a replayed frame's; nullptr when the session runs the
     * perfect-acquisition Collector. Valid only during the callback.
     */
    const trace::SampleHealth *health = nullptr;

    /** True when the decision that ended this interval ran the
     *  degraded-mode safe policy instead of the configured governor. */
    bool degraded = false;

    /** The HealthMonitor's smoothed |predicted - measured| power after
     *  this interval, watts; NaN on plain (non-hardened) sessions. */
    double divergence_ewma_w = std::numeric_limits<double>::quiet_NaN();

    /** Per-tenant power attribution for this interval; nullptr when the
     *  session defines no tenants. Valid only during the callback. */
    const TenantAttribution *tenants = nullptr;

    /** Tenant names aligned with the attribution arrays; set iff
     *  `tenants` is. Valid only during the callback. */
    const std::vector<std::string> *tenant_names = nullptr;
};

/** Observer of a governed run, invoked once per completed interval. */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** One completed interval. Pointers are valid only during the call. */
    virtual void onInterval(const IntervalTelemetry &t) = 0;

    /** End of run; flush/summarise. May be called more than once. */
    virtual void finish() {}

    /**
     * Durability point: everything observed so far is pushed through to
     * the underlying medium before flush() returns — buffered writers
     * flush their stream. Callable at any point between intervals, any
     * number of times. Default is a no-op (unbuffered sinks).
     */
    virtual void flush() {}

    /**
     * Terminal: flush, then release resources (owned files).
     * Idempotent. After close() returns the caller must not deliver
     * further onInterval() calls; failed()/error() stay valid.
     * Destruction implies close(). Default forwards to flush().
     */
    virtual void close() { flush(); }

    /**
     * True when the sink has stopped recording faithfully (e.g. its
     * output stream failed mid-run). Session::run checks this after
     * finish() and reports failed sinks instead of losing data
     * silently.
     */
    virtual bool failed() const { return false; }

    /** Description of the failure; empty while healthy. */
    virtual std::string error() const { return {}; }
};

/**
 * The stream lifecycle CsvSink and JsonlSink share: a caller-owned or
 * owned file stream, flush and close, and the sticky write failure. A
 * subclass encodes each interval into row_ and hands it to writeRow().
 */
class StreamSink : public TelemetrySink
{
  public:
    ~StreamSink() override;

    void finish() override { flush(); }
    void flush() override;
    void close() override;
    bool failed() const override { return failed_; }
    std::string error() const override { return error_; }

  protected:
    /** Write to a caller-owned stream (kept open). @p format names the
     *  sink in its error text. */
    StreamSink(std::ostream &out, const char *format);

    /** Write to a file; fatal() when it cannot be opened. */
    StreamSink(const std::string &path, const char *format);

    std::ostream &stream() { return *out_; }

    /** Hand row_ to the stream in one write, then check the stream. */
    void writeRow();

    util::fmt::RowBuffer row_;

  private:
    void checkStream();

    const char *format_;
    std::ostream *out_ = nullptr;
    std::unique_ptr<std::ostream> owned_;
    std::string path_;
    bool failed_ = false;
    std::string error_;
};

/** Comma-separated trace, one row per interval, header on first row. */
class CsvSink : public StreamSink
{
  public:
    /** Write to a caller-owned stream (kept open). */
    explicit CsvSink(std::ostream &out) : StreamSink(out, "csv") {}

    /** Write to a file; fatal() when it cannot be opened. */
    explicit CsvSink(const std::string &path) : StreamSink(path, "csv") {}

    void onInterval(const IntervalTelemetry &t) override;

  private:
    /** Encode one row into row_ (no stream I/O, no allocation warm). */
    void encodeRow(const IntervalTelemetry &t) PPEP_NONALLOCATING;

    bool header_written_ = false;
    bool with_health_ = false;
    bool with_tenants_ = false;
};

/** JSON-lines trace: one self-contained JSON object per interval. */
class JsonlSink : public StreamSink
{
  public:
    explicit JsonlSink(std::ostream &out) : StreamSink(out, "jsonl") {}
    explicit JsonlSink(const std::string &path)
        : StreamSink(path, "jsonl")
    {
    }

    void onInterval(const IntervalTelemetry &t) override;

  private:
    /** Encode one object into row_ (no stream I/O, no allocation warm). */
    void encodeRow(const IntervalTelemetry &t) PPEP_NONALLOCATING;
};

/**
 * Order-sensitive wide FNV-1a digest (util::fnv1aWide, from the FNV-1a
 * offset basis) over the deterministic fields of the telemetry stream —
 * the cheap bit-identical-replay witness behind the fleet determinism
 * tests and bench. It folds in, bit for bit, what software observes
 * (the interval's sensor power, diode temperature, per-core PMC counts,
 * VF context and busy-core count, and the health words of a hardened
 * session) plus what the pipeline decided from it (predicted power,
 * exploration rows, next VFs, tenant split, degraded flag).
 * decision_latency_s (wall clock) is excluded, and so is the
 * simulator's ground truth (oracle counts, true_* means,
 * nb_utilization): a replay does not carry it, so a recorded session
 * and its replay agree because both hash the same observed fields.
 * GoldenDigest.CollectorTruth pins the truth the Collector produces.
 */
class DigestSink : public TelemetrySink
{
  public:
    void onInterval(const IntervalTelemetry &t) PPEP_NONBLOCKING override;

    /** Digest over everything seen so far. */
    std::uint64_t digest() const { return hash_; }

    /** Intervals folded in. */
    std::size_t intervals() const { return count_; }

  private:
    void mixU64(std::uint64_t v) PPEP_NONBLOCKING;
    void mixDouble(double v) PPEP_NONBLOCKING;

    std::uint64_t hash_ = util::kFnvOffsetBasis;
    std::size_t count_ = 0;
};

/** End-of-run aggregates over a governed trace. */
class SummarySink : public TelemetrySink
{
  public:
    struct Summary
    {
        std::size_t intervals = 0;

        /** Fraction of intervals at or under cap (2% grace band). */
        double cap_adherence = 0.0;

        /** Mean intervals to get back under a newly-lowered cap. */
        double mean_settle_intervals = 0.0;

        /**
         * CU-interval counts per VF index (how long each state was
         * occupied, summed over CUs).
         */
        std::vector<std::size_t> vf_residency;

        /** Mean |predicted - measured| chip power over predicted
         *  intervals, watts; NaN when nothing was predicted. */
        double power_mae_w = std::numeric_limits<double>::quiet_NaN();

        /** Number of intervals that carried a power prediction. */
        std::size_t predicted_intervals = 0;

        double mean_power_w = 0.0;
        double energy_j = 0.0; ///< sensor power integrated over time

        double mean_decision_latency_s = 0.0;
        double max_decision_latency_s = 0.0;

        /** Total Sampler fault events over the run (hardened runs). */
        std::size_t fault_events = 0;

        /** Intervals governed by the degraded-mode safe policy. */
        std::size_t degraded_intervals = 0;

        /** Healthy-to-degraded transitions observed. */
        std::size_t demotions = 0;

        /** Divergence EWMA after the final interval, watts; NaN on
         *  plain sessions. */
        double final_divergence_ewma_w =
            std::numeric_limits<double>::quiet_NaN();

        /** Tenant names (empty when the run had no tenants). */
        std::vector<std::string> tenant_names;

        /** Attributed energy per tenant, joules (aligned with names). */
        std::vector<double> tenant_energy_j;

        /** Mean attributed power per tenant, watts. */
        std::vector<double> tenant_mean_power_w;

        /** Energy attributed to cores no tenant owns, joules. */
        double unattributed_energy_j = 0.0;
    };

    void onInterval(const IntervalTelemetry &t) override;

    /** Aggregates over everything seen so far. */
    Summary summary() const;

    /** Print a human-readable report. */
    void print(std::ostream &out) const;

  private:
    std::size_t intervals_ = 0;
    /** Intervals at or under cap (2% grace band). */
    std::size_t cap_ok_ = 0;
    double last_cap_w_ = 0.0;
    /** Cap drops not yet settled: their count and index sum. All of
     *  them settle at the next interval that meets its cap. */
    std::size_t open_drops_ = 0;
    std::size_t open_drop_index_sum_ = 0;
    /** Settled drops and the intervals they took in total. */
    std::size_t settled_drops_ = 0;
    std::size_t settle_intervals_ = 0;
    std::vector<std::size_t> residency_;
    std::vector<std::string> tenant_names_;
    std::vector<double> tenant_energy_j_;
    std::vector<double> tenant_power_sum_w_;
    double unattributed_energy_j_ = 0.0;
    std::size_t fault_events_ = 0;
    std::size_t degraded_intervals_ = 0;
    std::size_t demotions_ = 0;
    bool last_degraded_ = false;
    double last_divergence_w_ = std::numeric_limits<double>::quiet_NaN();
    double abs_err_sum_w_ = 0.0;
    std::size_t predicted_ = 0;
    double power_sum_w_ = 0.0;
    double energy_j_ = 0.0;
    double latency_sum_s_ = 0.0;
    double latency_max_s_ = 0.0;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_TELEMETRY_HPP
