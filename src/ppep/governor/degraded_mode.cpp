#include "ppep/governor/degraded_mode.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::governor {

DegradedModeGovernor::DegradedModeGovernor(const sim::Chip &chip,
                                           Governor &inner)
    : chip_(chip), inner_(&inner),
      last_predicted_w_(std::numeric_limits<double>::quiet_NaN())
{
}

std::vector<std::size_t>
DegradedModeGovernor::decide(const trace::IntervalRecord &rec,
                             double cap_w)
{
    std::vector<std::size_t> out;
    decideInto(rec, cap_w, out);
    return out;
}

void
DegradedModeGovernor::decideInto(const trace::IntervalRecord &rec,
                                 double cap_w,
                                 std::vector<std::size_t> &out)
    PPEP_NONBLOCKING
{
    if (!degraded_now_) {
        inner_->decideInto(rec, cap_w, out);
        last_predicted_w_ = inner_->lastPredictedPower();
        return;
    }

    ++degraded_intervals_;
    last_predicted_w_ = std::numeric_limits<double>::quiet_NaN();

    // Safe policy: hold, clamped out of boost; step everything down
    // one state when measured power nears the cap. Never steps up, so
    // a degraded run can only lower power relative to its entry point.
    const std::size_t top = chip_.config().vf_table.size() - 1;
    // rt-escape: warm-up growth of the caller-owned decision vector.
    PPEP_RT_WARMUP_BEGIN
    out.assign(rec.cu_vf.begin(), rec.cu_vf.end());
    PPEP_RT_WARMUP_END
    PPEP_ASSERT(out.size() == chip_.config().n_cus,
                "record CU count mismatch");
    for (auto &s : out)
        s = std::min(s, top);
    const bool near_cap =
        std::isfinite(cap_w) &&
        rec.sensor_power_w > cap_w * (1.0 - kCapGuard);
    if (near_cap) {
        for (auto &s : out)
            s = s > 0 ? s - 1 : 0;
    }
}

std::optional<sim::VfState>
DegradedModeGovernor::decideNb() PPEP_NONBLOCKING
{
    if (degraded_now_)
        return std::nullopt;
    return inner_->decideNb();
}

std::string
DegradedModeGovernor::name() const
{
    return "degraded-mode(" + inner_->name() + ")";
}

const std::vector<model::VfPrediction> *
DegradedModeGovernor::lastExploration() const PPEP_NONBLOCKING
{
    return degraded_now_ ? nullptr : inner_->lastExploration();
}

double
DegradedModeGovernor::lastPredictedPower() const PPEP_NONBLOCKING
{
    return last_predicted_w_;
}

} // namespace ppep::governor
