#include "ppep/governor/iterative_capping.hpp"

namespace ppep::governor {

IterativeCappingGovernor::IterativeCappingGovernor(
    const sim::ChipConfig &cfg)
    : cfg_(cfg), cu_vf_(cfg.n_cus, cfg.vf_table.top())
{
}

std::vector<std::size_t>
IterativeCappingGovernor::decide(const trace::IntervalRecord &rec,
                                 double cap_w)
{
    // Raise a VF state only when measured power is at least this far
    // under the cap, watts: the classic hysteresis band that also
    // causes the baseline's residual cap violations when it guesses
    // wrong.
    constexpr double kRaiseMarginW = 8.0;
    const double power = rec.sensor_power_w;
    if (power > cap_w) {
        // Over budget: lower one CU by one state, round-robin so the
        // pain is spread evenly. One step per interval — the iterative
        // search the paper contrasts against.
        for (std::size_t tries = 0; tries < cfg_.n_cus; ++tries) {
            const std::size_t cu = rr_;
            rr_ = (rr_ + 1) % cfg_.n_cus;
            if (cu_vf_[cu] > 0) {
                --cu_vf_[cu];
                break;
            }
        }
    } else if (power < cap_w - kRaiseMarginW) {
        // Comfortably under: claw back performance, one step.
        for (std::size_t tries = 0; tries < cfg_.n_cus; ++tries) {
            const std::size_t cu = rr_;
            rr_ = (rr_ + 1) % cfg_.n_cus;
            if (cu_vf_[cu] < cfg_.vf_table.top()) {
                ++cu_vf_[cu];
                break;
            }
        }
    }
    return cu_vf_;
}

} // namespace ppep::governor
