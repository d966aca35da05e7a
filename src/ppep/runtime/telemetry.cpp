#include "ppep/runtime/telemetry.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>

#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/events.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::runtime {

namespace {

std::unique_ptr<std::ostream>
openFile(const std::string &path)
{
    auto f = std::make_unique<std::ofstream>(path);
    if (!f->is_open())
        PPEP_FATAL("cannot open telemetry output '", path, "'");
    return f;
}

double
totalIps(const trace::IntervalRecord &rec)
{
    double inst = 0.0;
    for (const auto &core : rec.pmc)
        inst += core[sim::eventIndex(sim::Event::RetiredInst)];
    return rec.duration_s > 0.0 ? inst / rec.duration_s : 0.0;
}

double
coreIps(const trace::IntervalRecord &rec, std::size_t c)
{
    const double inst =
        rec.pmc[c][sim::eventIndex(sim::Event::RetiredInst)];
    return rec.duration_s > 0.0 ? inst / rec.duration_s : 0.0;
}

} // namespace

// --- StreamSink ----------------------------------------------------------

StreamSink::StreamSink(std::ostream &out, const char *format)
    : format_(format), out_(&out)
{
}

StreamSink::StreamSink(const std::string &path, const char *format)
    : format_(format), owned_(openFile(path)), path_(path)
{
    out_ = owned_.get();
}

StreamSink::~StreamSink() = default;

void
StreamSink::writeRow()
{
    out_->write(row_.data(), static_cast<std::streamsize>(row_.size()));
    checkStream();
}

void
StreamSink::checkStream()
{
    if (failed_ || *out_)
        return;
    failed_ = true;
    error_ = std::string(format_) + " telemetry write failed" +
             (path_.empty() ? std::string() : " ('" + path_ + "')");
}

void
StreamSink::flush()
{
    out_->flush();
    checkStream();
}

void
StreamSink::close()
{
    auto *f = dynamic_cast<std::ofstream *>(owned_.get());
    if (f && !f->is_open())
        return; // already closed
    flush();
    if (f)
        f->close();
}

// --- CsvSink -------------------------------------------------------------

void
CsvSink::onInterval(const IntervalTelemetry &t)
{
    auto &os = stream();
    if (!header_written_) {
        // The layout is derived from the session's chip config (via the
        // sizes the first interval carries): one VF column per CU, one
        // IPS column per core, so a Phenom II session and an FX-class
        // session in one fleet each get their own correct header.
        // Fault columns appear only on hardened runs; tenant columns
        // only on sessions that define tenants.
        with_health_ = t.health != nullptr;
        with_recal_ = t.recal_active;
        with_tenants_ = t.tenants != nullptr;
        os << "interval,time_s,cap_w";
        for (std::size_t i = 0; i < t.cu_vf->size(); ++i)
            os << ",cu" << i << "_vf";
        os << ",measured_power_w,predicted_power_w,diode_temp_k,"
              "total_ips";
        for (std::size_t c = 0; c < t.rec->pmc.size(); ++c)
            os << ",core" << c << "_ips";
        os << ",decision_latency_us";
        if (with_health_)
            os << ",fault_events,substituted_cores,zeroed_cores,"
                  "sensor_rejects,diode_rejects,degraded,"
                  "divergence_ewma_w";
        if (with_recal_)
            os << ",model_gen,recal_triggers,recal_accepted,"
                  "recal_rejected";
        if (with_tenants_) {
            for (const auto &name : *t.tenant_names)
                os << ",tenant_" << name << "_w";
            os << ",unattributed_w";
        }
        os << '\n';
        header_written_ = true;
    }
    // Encode the whole row into the reused buffer (shortest
    // round-trip doubles, no locale, no per-cell allocation), then
    // hand the stream one write.
    encodeRow(t);
    writeRow();
}

void
CsvSink::encodeRow(const IntervalTelemetry &t) PPEP_NONALLOCATING
{
    util::fmt::RowBuffer &row = row_;
    row.clear();
    row.appendU64(t.index);
    row.append(',');
    row.appendDouble(t.time_s);
    row.append(',');
    row.appendDouble(t.cap_w);
    for (std::size_t i = 0; i < t.cu_vf->size(); ++i) {
        row.append(',');
        row.appendU64((*t.cu_vf)[i]);
    }
    row.append(',');
    row.appendDouble(t.rec->sensor_power_w);
    row.append(',');
    if (std::isfinite(t.predicted_power_w))
        row.appendDouble(t.predicted_power_w);
    row.append(',');
    row.appendDouble(t.rec->diode_temp_k);
    row.append(',');
    row.appendDouble(totalIps(*t.rec));
    for (std::size_t c = 0; c < t.rec->pmc.size(); ++c) {
        row.append(',');
        row.appendDouble(coreIps(*t.rec, c));
    }
    row.append(',');
    row.appendDouble(t.decision_latency_s * 1e6);
    if (with_health_) {
        if (t.health) {
            row.append(',');
            row.appendU64(t.health->faultEvents());
            row.append(',');
            row.appendU64(t.health->substituted_cores);
            row.append(',');
            row.appendU64(t.health->zeroed_cores);
            row.append(',');
            row.appendU64(t.health->sensor_rejects);
            row.append(',');
            row.appendU64(t.health->diode_rejects);
            row.append(',');
            row.append(t.degraded ? '1' : '0');
            row.append(',');
            if (std::isfinite(t.divergence_ewma_w))
                row.appendDouble(t.divergence_ewma_w);
        } else {
            row.append(std::string_view{",0,0,0,0,0,0,"});
        }
    }
    if (with_recal_) {
        row.append(',');
        row.appendU64(t.model_generation);
        row.append(',');
        row.appendU64(t.recal_triggers);
        row.append(',');
        row.appendU64(t.recal_accepted);
        row.append(',');
        row.appendU64(t.recal_rejected);
    }
    if (with_tenants_ && t.tenants) {
        for (double w : t.tenants->total_w) {
            row.append(',');
            row.appendDouble(w);
        }
        row.append(',');
        row.appendDouble(t.tenants->unattributed_w);
    }
    row.append('\n');
}

// --- JsonlSink -----------------------------------------------------------

void
JsonlSink::onInterval(const IntervalTelemetry &t)
{
    encodeRow(t);
    writeRow();
}

void
JsonlSink::encodeRow(const IntervalTelemetry &t) PPEP_NONALLOCATING
{
    util::fmt::RowBuffer &row = row_;
    row.clear();
    row.append(std::string_view{"{\"interval\":"});
    row.appendU64(t.index);
    row.append(std::string_view{",\"time_s\":"});
    row.appendJsonDouble(t.time_s);
    row.append(std::string_view{",\"cap_w\":"});
    row.appendJsonDouble(t.cap_w);
    row.append(std::string_view{",\"cu_vf\":["});
    for (std::size_t i = 0; i < t.cu_vf->size(); ++i) {
        if (i)
            row.append(',');
        row.appendU64((*t.cu_vf)[i]);
    }
    row.append(std::string_view{"],\"measured_power_w\":"});
    row.appendJsonDouble(t.rec->sensor_power_w);
    row.append(std::string_view{",\"predicted_power_w\":"});
    row.appendJsonDouble(t.predicted_power_w);
    row.append(std::string_view{",\"diode_temp_k\":"});
    row.appendJsonDouble(t.rec->diode_temp_k);
    row.append(std::string_view{",\"total_ips\":"});
    row.appendJsonDouble(totalIps(*t.rec));
    row.append(std::string_view{",\"core_ips\":["});
    for (std::size_t c = 0; c < t.rec->pmc.size(); ++c) {
        if (c)
            row.append(',');
        row.appendJsonDouble(coreIps(*t.rec, c));
    }
    row.append(std::string_view{"],\"decision_latency_us\":"});
    row.appendJsonDouble(t.decision_latency_s * 1e6);
    if (t.health) {
        row.append(std::string_view{",\"fault_events\":"});
        row.appendU64(t.health->faultEvents());
        row.append(std::string_view{",\"substituted_cores\":"});
        row.appendU64(t.health->substituted_cores);
        row.append(std::string_view{",\"zeroed_cores\":"});
        row.appendU64(t.health->zeroed_cores);
        row.append(std::string_view{",\"sensor_rejects\":"});
        row.appendU64(t.health->sensor_rejects);
        row.append(std::string_view{",\"diode_rejects\":"});
        row.appendU64(t.health->diode_rejects);
        row.append(std::string_view{",\"total_fault_events\":"});
        row.appendU64(t.health->total_fault_events +
                      t.health->faultEvents());
        row.append(std::string_view{",\"degraded\":"});
        row.append(std::string_view{t.degraded ? "true" : "false"});
        row.append(std::string_view{",\"divergence_ewma_w\":"});
        row.appendJsonDouble(t.divergence_ewma_w);
    }
    if (t.recal_active) {
        row.append(std::string_view{",\"model_gen\":"});
        row.appendU64(t.model_generation);
        row.append(std::string_view{",\"recal_triggers\":"});
        row.appendU64(t.recal_triggers);
        row.append(std::string_view{",\"recal_accepted\":"});
        row.appendU64(t.recal_accepted);
        row.append(std::string_view{",\"recal_rejected\":"});
        row.appendU64(t.recal_rejected);
    }
    if (t.tenants && t.tenant_names) {
        const TenantAttribution &a = *t.tenants;
        row.append(std::string_view{",\"tenants\":{"});
        for (std::size_t i = 0; i < t.tenant_names->size(); ++i) {
            if (i)
                row.append(',');
            row.append('"');
            row.append(std::string_view{(*t.tenant_names)[i]});
            row.append(std::string_view{"\":{\"dynamic_w\":"});
            row.appendJsonDouble(a.dynamic_w[i]);
            row.append(std::string_view{",\"idle_w\":"});
            row.appendJsonDouble(a.idle_w[i]);
            row.append(std::string_view{",\"total_w\":"});
            row.appendJsonDouble(a.total_w[i]);
            row.append('}');
        }
        row.append(std::string_view{"},\"unattributed_w\":"});
        row.appendJsonDouble(a.unattributed_w);
        row.append(std::string_view{",\"tenant_chip_total_w\":"});
        row.appendJsonDouble(a.chip_total_w);
    }
    row.append(std::string_view{"}\n"});
}

// --- DigestSink ----------------------------------------------------------

void
DigestSink::mixU64(std::uint64_t v) PPEP_NONBLOCKING
{
    // At ~150 words per interval the byte-at-a-time chain alone
    // dominated replay ingest; the wide step costs an eighth of it.
    hash_ = util::fnv1aWide(hash_, v);
}

void
DigestSink::mixDouble(double v) PPEP_NONBLOCKING
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mixU64(bits);
}

void
DigestSink::onInterval(const IntervalTelemetry &t) PPEP_NONBLOCKING
{
    ++count_;
    mixU64(t.index);
    mixDouble(t.time_s);
    mixDouble(t.cap_w);
    mixDouble(t.predicted_power_w);
    mixU64(t.degraded ? 1 : 0);
    // decision_latency_s is wall clock — deliberately NOT hashed.

    for (std::size_t v : *t.cu_vf)
        mixU64(v);

    const trace::IntervalRecord &rec = *t.rec;
    mixDouble(rec.duration_s);
    mixDouble(rec.sensor_power_w);
    mixDouble(rec.diode_temp_k);
    mixU64(rec.busy_cores);
    mixDouble(rec.nb_vf.voltage);
    mixDouble(rec.nb_vf.freq_ghz);
    for (std::size_t v : rec.cu_vf)
        mixU64(v);
    for (const auto &core : rec.pmc)
        for (double e : core)
            mixDouble(e);

    if (t.exploration) {
        for (const auto &p : *t.exploration) {
            mixU64(p.vf_index);
            mixDouble(p.total_ips);
            mixDouble(p.idle_w);
            mixDouble(p.dynamic_w);
            mixDouble(p.chip_power_w);
            mixDouble(p.energy_per_inst);
            mixDouble(p.edp_per_inst);
        }
    }

    if (t.tenants) {
        const TenantAttribution &a = *t.tenants;
        for (double v : a.dynamic_w)
            mixDouble(v);
        for (double v : a.idle_w)
            mixDouble(v);
        for (double v : a.total_w)
            mixDouble(v);
        mixDouble(a.unattributed_w);
        mixDouble(a.chip_total_w);
    }

    if (t.health) {
        for (std::uint64_t w : t.health->words())
            mixU64(w);
        mixDouble(t.divergence_ewma_w);
    }

    // Gated so that plain-session digests (the committed bench
    // baselines) are unchanged by the recalibration columns.
    if (t.recal_active) {
        mixU64(t.model_generation);
        mixU64(t.recal_triggers);
        mixU64(t.recal_accepted);
        mixU64(t.recal_rejected);
    }
}

// --- SummarySink ---------------------------------------------------------

void
SummarySink::onInterval(const IntervalTelemetry &t)
{
    // A cap drop at interval i settles at the first interval j >= i
    // that meets its cap, taking j - i + 1 intervals (as
    // governor::meanSettleIntervals counts them).
    const std::size_t i = intervals_++;
    if (i > 0 && t.cap_w < last_cap_w_) {
        ++open_drops_;
        open_drop_index_sum_ += i;
    }
    last_cap_w_ = t.cap_w;
    // Same grace band as governor::capAdherence: sensor noise alone can
    // cross an exact cap.
    if (t.rec->sensor_power_w <= t.cap_w * 1.02) {
        ++cap_ok_;
        settled_drops_ += open_drops_;
        settle_intervals_ += open_drops_ * (i + 1) - open_drop_index_sum_;
        open_drops_ = 0;
        open_drop_index_sum_ = 0;
    }
    for (std::size_t v : *t.cu_vf) {
        if (v >= residency_.size())
            residency_.resize(v + 1, 0);
        ++residency_[v];
    }
    if (std::isfinite(t.predicted_power_w)) {
        abs_err_sum_w_ +=
            std::abs(t.predicted_power_w - t.rec->sensor_power_w);
        ++predicted_;
    }
    power_sum_w_ += t.rec->sensor_power_w;
    energy_j_ += t.rec->sensor_power_w * t.rec->duration_s;
    latency_sum_s_ += t.decision_latency_s;
    latency_max_s_ = std::max(latency_max_s_, t.decision_latency_s);
    if (t.tenants) {
        const TenantAttribution &a = *t.tenants;
        if (tenant_names_.empty() && t.tenant_names)
            tenant_names_ = *t.tenant_names;
        if (tenant_energy_j_.size() < a.total_w.size()) {
            tenant_energy_j_.resize(a.total_w.size(), 0.0);
            tenant_power_sum_w_.resize(a.total_w.size(), 0.0);
        }
        for (std::size_t k = 0; k < a.total_w.size(); ++k) {
            tenant_energy_j_[k] += a.total_w[k] * t.rec->duration_s;
            tenant_power_sum_w_[k] += a.total_w[k];
        }
        unattributed_energy_j_ +=
            a.unattributed_w * t.rec->duration_s;
    }
    if (t.health)
        fault_events_ += t.health->faultEvents();
    last_divergence_w_ = t.divergence_ewma_w;
    if (t.recal_active) {
        recal_seen_ = true;
        last_generation_ = t.model_generation;
        last_triggers_ = t.recal_triggers;
        last_accepted_ = t.recal_accepted;
        last_rejected_ = t.recal_rejected;
    }
    if (t.degraded) {
        ++degraded_intervals_;
        if (!last_degraded_)
            ++demotions_;
    }
    last_degraded_ = t.degraded;
}

SummarySink::Summary
SummarySink::summary() const
{
    Summary s;
    s.intervals = intervals_;
    s.vf_residency = residency_;
    if (intervals_ == 0)
        return s;

    s.cap_adherence =
        static_cast<double>(cap_ok_) / static_cast<double>(intervals_);

    // A drop still open at the end counts up to the end of the run.
    const std::size_t settle_events = settled_drops_ + open_drops_;
    const std::size_t settle_total =
        settle_intervals_ + open_drops_ * intervals_ - open_drop_index_sum_;
    s.mean_settle_intervals =
        settle_events ? static_cast<double>(settle_total) /
                            static_cast<double>(settle_events)
                      : 0.0;

    s.predicted_intervals = predicted_;
    if (predicted_)
        s.power_mae_w =
            abs_err_sum_w_ / static_cast<double>(predicted_);
    s.mean_power_w = power_sum_w_ / static_cast<double>(intervals_);
    s.energy_j = energy_j_;
    s.mean_decision_latency_s =
        latency_sum_s_ / static_cast<double>(intervals_);
    s.max_decision_latency_s = latency_max_s_;
    s.fault_events = fault_events_;
    s.degraded_intervals = degraded_intervals_;
    s.demotions = demotions_;
    s.final_divergence_ewma_w = last_divergence_w_;
    s.model_generation = last_generation_;
    s.recal_triggers = last_triggers_;
    s.recal_accepted = last_accepted_;
    s.recal_rejected = last_rejected_;
    s.tenant_names = tenant_names_;
    s.tenant_energy_j = tenant_energy_j_;
    s.tenant_mean_power_w = tenant_power_sum_w_;
    for (double &w : s.tenant_mean_power_w)
        w /= static_cast<double>(intervals_);
    s.unattributed_energy_j = unattributed_energy_j_;
    return s;
}

void
SummarySink::print(std::ostream &out) const
{
    const Summary s = summary();
    util::fmt::RowBuffer row(512);
    row.append(std::string_view{"run summary: "});
    row.appendU64(s.intervals);
    row.append(std::string_view{" intervals, mean power "});
    row.appendFixed(s.mean_power_w, 1);
    row.append(std::string_view{" W, energy "});
    row.appendFixed(s.energy_j, 1);
    row.append(std::string_view{" J\n  cap adherence "});
    row.appendFixed(100.0 * s.cap_adherence, 1);
    row.append(std::string_view{"%, mean settle "});
    row.appendFixed(s.mean_settle_intervals, 2);
    row.append(std::string_view{" intervals\n"});
    if (s.predicted_intervals) {
        row.append(
            std::string_view{"  predicted-vs-measured power MAE "});
        row.appendFixed(s.power_mae_w, 2);
        row.append(std::string_view{" W over "});
        row.appendU64(s.predicted_intervals);
        row.append(std::string_view{" intervals\n"});
    }
    row.append(std::string_view{"  decision latency mean "});
    row.appendFixed(1e6 * s.mean_decision_latency_s, 1);
    row.append(std::string_view{" us, max "});
    row.appendFixed(1e6 * s.max_decision_latency_s, 1);
    row.append(std::string_view{" us\n"});
    if (s.fault_events || s.degraded_intervals) {
        row.append(std::string_view{"  fault events "});
        row.appendU64(s.fault_events);
        row.append(std::string_view{", degraded intervals "});
        row.appendU64(s.degraded_intervals);
        row.append(std::string_view{" ("});
        row.appendU64(s.demotions);
        row.append(std::string_view{" demotions)\n"});
    }
    if (recal_seen_) {
        row.append(std::string_view{"  recalibration: generation "});
        row.appendU64(s.model_generation);
        row.append(std::string_view{", "});
        row.appendU64(s.recal_triggers);
        row.append(std::string_view{" refits ("});
        row.appendU64(s.recal_accepted);
        row.append(std::string_view{" adopted, "});
        row.appendU64(s.recal_rejected);
        row.append(std::string_view{" rejected), divergence EWMA "});
        row.appendFixed(s.final_divergence_ewma_w, 2);
        row.append(std::string_view{" W\n"});
    }
    for (std::size_t i = 0; i < s.tenant_names.size(); ++i) {
        row.append(std::string_view{"  tenant "});
        row.append(std::string_view{s.tenant_names[i]});
        row.append(std::string_view{": energy "});
        row.appendFixed(s.tenant_energy_j[i], 1);
        row.append(std::string_view{" J, mean power "});
        row.appendFixed(s.tenant_mean_power_w[i], 2);
        row.append(std::string_view{" W\n"});
    }
    row.append(std::string_view{"  VF residency (CU-intervals):"});
    for (std::size_t v = 0; v < s.vf_residency.size(); ++v) {
        row.append(std::string_view{" VF"});
        row.appendU64(v + 1);
        row.append('=');
        row.appendU64(s.vf_residency[v]);
    }
    row.append('\n');
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
}

} // namespace ppep::runtime
