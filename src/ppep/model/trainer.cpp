#include "ppep/model/trainer.hpp"

#include <array>
#include <cmath>
#include <functional>
#include <thread>

#include "ppep/math/polynomial.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/util/parallel.hpp"
#include "ppep/workloads/microbench.hpp"

namespace ppep::model {

namespace {

/** What the Eq. 3 fit reads from one busy top-VF interval. The idle
 *  estimate is subtracted once the idle model has been fitted. */
struct TopVfRow
{
    std::array<double, sim::kNumPowerEvents> rates_per_s{};
    double sensor_power_w = 0.0;
    double diode_temp_k = 0.0;
};

/** The training rows of one or more benchmark traces. */
struct TraceRows
{
    std::vector<GgTrainingRow> gg; ///< every busy interval, any VF
    std::vector<TopVfRow> top;     ///< busy intervals at the top VF
};

/** Append @p trace's busy intervals to @p rows: a GG row each, and at
 *  the top VF state an Eq. 3 row too. */
void
appendRows(const sim::ChipConfig &cfg, const ComboTrace &trace,
           TraceRows &rows)
{
    const double v = cfg.vf_table.state(trace.vf_index).voltage;
    const bool top = trace.vf_index == cfg.vf_table.top();
    for (const auto &rec : trace.recs) {
        if (rec.busy_cores == 0)
            continue;
        GgTrainingRow gg;
        gg.voltage = v;
        gg.cycle_rate =
            rec.pmcTotal(sim::Event::ClocksNotHalted) / rec.duration_s;
        gg.inst_rate =
            rec.pmcTotal(sim::Event::RetiredInst) / rec.duration_s;
        gg.power_w = rec.sensor_power_w;
        rows.gg.push_back(gg);
        if (top)
            rows.top.push_back(
                {powerEventRates(rec.pmc, rec.duration_s),
                 rec.sensor_power_w, rec.diode_temp_k});
    }
}

DynamicPowerModel
fitDynamic(const sim::ChipConfig &cfg, const IdlePowerModel &idle,
           double alpha, const std::vector<TopVfRow> &top)
{
    const double v_top = cfg.vf_table.state(cfg.vf_table.top()).voltage;
    std::vector<DynTrainingRow> rows(top.size());
    for (std::size_t i = 0; i < top.size(); ++i) {
        rows[i].rates_per_s = top[i].rates_per_s;
        rows[i].dynamic_power_w =
            top[i].sensor_power_w -
            idle.predict(v_top, top[i].diode_temp_k);
    }
    PPEP_ASSERT(!rows.empty(), "no top-VF training rows in dataset");
    return DynamicPowerModel::train(rows, v_top, alpha);
}

/** Mean sensor power, diode temperature and retired-uop rate of one
 *  alpha calibration run. */
struct AlphaRun
{
    double power_w = 0.0;
    double temp_k = 0.0;
    double uops_per_s = 0.0;
};

} // namespace

/**
 * The independent experiments of one protocol run. The add*() calls
 * queue jobs, longest first (cooling traces, then alpha, PG and
 * benchmark traces), and size one result slot per job. run() executes
 * every job once on the worker pool. The accessors then read the slots
 * in a fixed order, so what they return does not depend on which
 * worker ran which job.
 */
class Trainer::Batch
{
  public:
    explicit Batch(const Trainer &trainer)
        : t_(trainer), n_vf_(trainer.cfg_.vf_table.size())
    {
    }
    // Queued jobs hold this batch's address.
    Batch(const Batch &) = delete;
    Batch &operator=(const Batch &) = delete;

    /** One Fig. 1 heat/cool run per VF state; keeps the (V, T, P)
     *  cooling samples. */
    void
    addCooling()
    {
        cooling_.resize(n_vf_);
        for (std::size_t vf = 0; vf < n_vf_; ++vf)
            jobs_.push_back([this, vf] {
                cooling_[vf] = t_.collectCoolingTrace(vf).idle_samples;
            });
    }

    /** One steady all-core heater run per VF state. */
    void
    addAlpha()
    {
        alpha_.resize(n_vf_);
        for (std::size_t vf = 0; vf < n_vf_; ++vf)
            jobs_.push_back([this, vf] { alpha_[vf] = measureAlpha(vf); });
    }

    /** The Fig. 4 sweep: VF x PG off/on x 0..n_cus busy CUs. */
    void
    addPg()
    {
        pg_.resize(n_vf_);
        for (std::size_t vf = 0; vf < n_vf_; ++vf) {
            PgSweepMeasurement &m = pg_[vf];
            m.vf_index = vf;
            for (const bool pg : {false, true}) {
                auto &power = pg ? m.power_pg_on : m.power_pg_off;
                power.resize(t_.cfg_.n_cus + 1);
                for (std::size_t k = 0; k < power.size(); ++k)
                    jobs_.push_back([this, vf, pg, k, &power] {
                        power[k] = measurePg(vf, pg, k);
                    });
            }
        }
    }

    /** Full benchmark traces for @p combos x @p vfs, combo-major. */
    void
    addTraces(const std::vector<const workloads::Combination *> &combos,
              const std::vector<std::size_t> &vfs,
              std::size_t max_intervals)
    {
        traces_.resize(combos.size() * vfs.size());
        for (std::size_t c = 0; c < combos.size(); ++c)
            for (std::size_t v = 0; v < vfs.size(); ++v) {
                const std::size_t slot = c * vfs.size() + v;
                jobs_.push_back([this, combo = combos[c], vf = vfs[v],
                                 max_intervals, slot] {
                    traces_[slot] =
                        t_.collectCombo(*combo, vf, max_intervals);
                });
            }
    }

    /**
     * The training rows of every (combination, VF state), combo-major.
     * A matching @p dataset entry is reduced here; every other pair
     * becomes a job that traces the combination and keeps only its
     * rows.
     */
    void
    addRows(const std::vector<const workloads::Combination *> &combos,
            const std::vector<ComboTrace> *dataset)
    {
        rows_.resize(combos.size() * n_vf_);
        for (std::size_t c = 0; c < combos.size(); ++c) {
            for (std::size_t vf = 0; vf < n_vf_; ++vf) {
                const std::size_t slot = c * n_vf_ + vf;
                const ComboTrace *found = nullptr;
                if (dataset) {
                    for (const auto &t : *dataset) {
                        if (t.combo == combos[c] && t.vf_index == vf) {
                            found = &t;
                            break;
                        }
                    }
                }
                if (found) {
                    appendRows(t_.cfg_, *found, rows_[slot]);
                    continue;
                }
                jobs_.push_back([this, combo = combos[c], vf, slot] {
                    appendRows(t_.cfg_, t_.collectCombo(*combo, vf),
                               rows_[slot]);
                });
            }
        }
    }

    /** Run every queued job, one worker per hardware thread. */
    void
    run()
    {
        util::parallelFor(jobs_.size(), std::thread::hardware_concurrency(),
                          [this](std::size_t i) { jobs_[i](); });
        jobs_.clear();
    }

    IdlePowerModel
    idle() const
    {
        std::vector<IdleSample> samples;
        for (const auto &vf_samples : cooling_)
            samples.insert(samples.end(), vf_samples.begin(),
                           vf_samples.end());
        return IdlePowerModel::train(samples);
    }

    double
    alpha(const IdlePowerModel &idle) const
    {
        std::vector<double> log_v, log_e;
        for (std::size_t vf = 0; vf < n_vf_; ++vf) {
            const AlphaRun &run = alpha_[vf];
            const double voltage = t_.cfg_.vf_table.state(vf).voltage;
            const double dyn = run.power_w - idle.predict(voltage, run.temp_k);
            PPEP_ASSERT(dyn > 0.0 && run.uops_per_s > 0.0,
                        "alpha calibration found no dynamic power at VF ",
                        vf);
            log_v.push_back(std::log(voltage));
            log_e.push_back(std::log(dyn / run.uops_per_s));
        }
        const auto line = math::Polynomial::fit(log_v, log_e, 1);
        const double alpha = line.coefficients()[1];
        PPEP_ASSERT(alpha > 0.5 && alpha < 5.0,
                    "implausible alpha estimate ", alpha);
        return alpha;
    }

    const std::vector<PgSweepMeasurement> &pgSweeps() const { return pg_; }

    std::vector<ComboTrace> takeTraces() { return std::move(traces_); }

    /** Every slot's rows, concatenated in slot order. */
    TraceRows
    rows() const
    {
        TraceRows all;
        for (const auto &r : rows_) {
            all.gg.insert(all.gg.end(), r.gg.begin(), r.gg.end());
            all.top.insert(all.top.end(), r.top.begin(), r.top.end());
        }
        return all;
    }

  private:
    AlphaRun
    measureAlpha(std::size_t vf) const
    {
        const sim::ChipConfig &cfg = t_.cfg_;
        sim::Chip chip = t_.makeChip(0x2000 + vf);
        chip.setAllVf(vf);
        chip.setTemperatureK(cfg.thermal.ambient_k + 18.0);
        for (std::size_t c = 0; c < cfg.coreCount(); ++c)
            chip.setJob(c, workloads::makeHeater());

        trace::Collector col(chip);
        col.collect(25); // settle rates and temperature drift
        const auto recs = col.collect(20);

        AlphaRun run;
        for (const auto &rec : recs) {
            run.power_w += rec.sensor_power_w;
            run.temp_k += rec.diode_temp_k;
            run.uops_per_s +=
                rec.pmcTotal(sim::Event::RetiredUop) / rec.duration_s;
        }
        const double n = static_cast<double>(recs.size());
        run.power_w /= n;
        run.temp_k /= n;
        run.uops_per_s /= n;
        return run;
    }

    double
    measurePg(std::size_t vf, bool pg, std::size_t k) const
    {
        const sim::ChipConfig &cfg = t_.cfg_;
        sim::Chip chip = t_.makeChip(0x3000 + vf * 64 + k * 2 + (pg ? 1 : 0));
        chip.setAllVf(vf);
        chip.setPowerGatingEnabled(pg);
        // Keep thermal context comparable across the sweep: the paper
        // measures back-to-back on a warm part.
        chip.setTemperatureK(cfg.thermal.ambient_k + 16.0);
        // k busy CUs, one bench_A instance on each CU's core 0.
        for (std::size_t cu = 0; cu < k; ++cu)
            chip.setJob(cu * cfg.cores_per_cu, workloads::makeBenchA());
        trace::Collector col(chip);
        col.collect(5); // settle
        const auto recs = col.collect(10);
        double power = 0.0;
        for (const auto &rec : recs)
            power += rec.sensor_power_w;
        return power / static_cast<double>(recs.size());
    }

    const Trainer &t_;
    std::size_t n_vf_;
    std::vector<std::function<void()>> jobs_;
    std::vector<std::vector<IdleSample>> cooling_;
    std::vector<AlphaRun> alpha_;
    std::vector<PgSweepMeasurement> pg_;
    std::vector<ComboTrace> traces_;
    std::vector<TraceRows> rows_;
};

Trainer::Trainer(sim::ChipConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), seed_(seed)
{
}

sim::Chip
Trainer::makeChip(std::uint64_t stream) const
{
    return sim::Chip(cfg_, seed_ * 0x100000001b3ULL + stream);
}

CoolingTrace
Trainer::collectCoolingTrace(std::size_t vf_index,
                             std::size_t heat_intervals,
                             std::size_t cool_intervals) const
{
    sim::Chip chip = makeChip(0x1000 + vf_index);
    chip.setAllVf(vf_index);
    // PG stays disabled: the idle model describes the active-idle chip.

    CoolingTrace out;
    trace::Collector col(chip);

    // Heat: heavy work on every core (the paper heats at full tilt, then
    // switches to the VF state under study to cool).
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c)
        chip.setJob(c, workloads::makeHeater());
    for (std::size_t i = 0; i < heat_intervals; ++i) {
        const auto rec = col.collectInterval();
        out.power_curve_w.push_back(rec.sensor_power_w);
        out.temp_curve_k.push_back(rec.diode_temp_k);
    }

    // Cool: stop all work, record (V, T, P) while temperature decays.
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c)
        chip.clearJob(c);
    out.cool_start = out.power_curve_w.size();
    const double voltage = cfg_.vf_table.state(vf_index).voltage;
    for (std::size_t i = 0; i < cool_intervals; ++i) {
        const auto rec = col.collectInterval();
        out.power_curve_w.push_back(rec.sensor_power_w);
        out.temp_curve_k.push_back(rec.diode_temp_k);
        out.idle_samples.push_back(
            {voltage, rec.diode_temp_k, rec.sensor_power_w});
    }
    return out;
}

IdlePowerModel
Trainer::trainIdle() const
{
    Batch batch(*this);
    batch.addCooling();
    batch.run();
    return batch.idle();
}

double
Trainer::estimateAlpha(const IdlePowerModel &idle) const
{
    Batch batch(*this);
    batch.addAlpha();
    batch.run();
    return batch.alpha(idle);
}

std::vector<PgSweepMeasurement>
Trainer::collectPgSweeps() const
{
    PPEP_ASSERT(cfg_.pg_supported, "chip has no power gating");
    Batch batch(*this);
    batch.addPg();
    batch.run();
    return batch.pgSweeps();
}

PgIdleModel
Trainer::trainPg() const
{
    return PgIdleModel::fromSweeps(collectPgSweeps(), cfg_.n_cus);
}

ComboTrace
Trainer::collectCombo(const workloads::Combination &combo,
                      std::size_t vf_index,
                      std::size_t max_intervals) const
{
    sim::Chip chip = makeChip(
        0x4000 + std::hash<std::string>{}(combo.name) * 8 + vf_index);
    chip.setAllVf(vf_index);
    // Benchmarks start on a part that has been running the harness:
    // moderately warm, then free-running thermals.
    chip.setTemperatureK(cfg_.thermal.ambient_k + 12.0);
    workloads::launch(chip, combo, /*looping=*/false);

    ComboTrace out;
    out.combo = &combo;
    out.vf_index = vf_index;
    trace::Collector col(chip);
    auto recs = col.collectUntilFinished(max_intervals);
    // Drop fully idle tails (the last interval can be all-idle when the
    // final job ends exactly on an interval boundary).
    while (!recs.empty() && recs.back().busy_cores == 0)
        recs.pop_back();
    PPEP_ASSERT(!recs.empty(), "combo '", combo.name,
                "' produced no busy intervals");
    out.recs = std::move(recs);
    return out;
}

std::vector<ComboTrace>
Trainer::collectDataset(
    const std::vector<const workloads::Combination *> &combos,
    const std::vector<std::size_t> &vf_indices,
    std::size_t max_intervals) const
{
    Batch batch(*this);
    batch.addTraces(combos, vf_indices, max_intervals);
    batch.run();
    return batch.takeTraces();
}

DynamicPowerModel
Trainer::trainDynamic(const IdlePowerModel &idle, double alpha,
                      const std::vector<const ComboTrace *> &traces) const
{
    TraceRows rows;
    for (const auto *trace : traces)
        appendRows(cfg_, *trace, rows);
    return fitDynamic(cfg_, idle, alpha, rows.top);
}

GreenGovernorsModel
Trainer::trainGg(const std::vector<const ComboTrace *> &traces) const
{
    TraceRows rows;
    for (const auto *trace : traces)
        appendRows(cfg_, *trace, rows);
    return GreenGovernorsModel::train(rows.gg);
}

TrainedModels
Trainer::trainAll(
    const std::vector<const workloads::Combination *> &combos,
    const std::vector<ComboTrace> *dataset) const
{
    // Simulate in parallel: every experiment of every protocol is one
    // job of one batch, the longest (cooling) first.
    Batch batch(*this);
    batch.addCooling();
    batch.addAlpha();
    if (cfg_.pg_supported)
        batch.addPg();
    batch.addRows(combos, dataset);
    batch.run();

    // Fit in order, on this thread.
    TrainedModels out;
    out.idle = batch.idle();
    out.alpha = batch.alpha(out.idle);
    if (cfg_.pg_supported)
        out.pg = PgIdleModel::fromSweeps(batch.pgSweeps(), cfg_.n_cus);
    const TraceRows rows = batch.rows();
    out.dynamic = fitDynamic(cfg_, out.idle, out.alpha, rows.top);
    out.gg = GreenGovernorsModel::train(rows.gg);
    out.chip = ChipPowerModel(out.idle, out.dynamic, cfg_.vf_table);
    return out;
}

} // namespace ppep::model
