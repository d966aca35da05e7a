#include "ppep/sim/phase.hpp"

#include <functional>

#include "ppep/util/logging.hpp"
#include "ppep/util/rng.hpp"

namespace ppep::sim {

void
Phase::validate() const
{
    PPEP_ASSERT(uops_per_inst >= 1.0, "uops/inst must be >= 1");
    PPEP_ASSERT(fpu_per_inst >= 0.0, "negative FPU rate");
    PPEP_ASSERT(ifetch_per_inst > 0.0, "ifetch rate must be positive");
    PPEP_ASSERT(dcache_per_inst >= 0.0, "negative dcache rate");
    PPEP_ASSERT(l2req_per_inst >= 0.0, "negative L2 request rate");
    PPEP_ASSERT(branch_per_inst >= 0.0 && branch_per_inst <= 1.0,
                "branch rate out of [0,1]");
    PPEP_ASSERT(mispred_per_inst >= 0.0 &&
                mispred_per_inst <= branch_per_inst,
                "mispredictions exceed branches");
    PPEP_ASSERT(l2miss_per_inst >= 0.0 && l2miss_per_inst <= l2req_per_inst,
                "L2 misses exceed L2 requests");
    PPEP_ASSERT(leading_per_inst >= 0.0 &&
                leading_per_inst <= l2miss_per_inst + 1e-12,
                "leading loads exceed L2 misses");
    PPEP_ASSERT(l3_miss_rate >= 0.0 && l3_miss_rate <= 1.0,
                "L3 miss rate out of [0,1]");
    PPEP_ASSERT(resource_stall_cpi >= 0.0, "negative stall CPI");
    PPEP_ASSERT(inst_count > 0.0, "phase must contain instructions");
}

Job::Job(std::string name, std::vector<Phase> phases, bool looping)
    : name_(std::move(name)), phases_(std::move(phases)), looping_(looping)
{
    PPEP_ASSERT(!phases_.empty(), "job '", name_, "' has no phases");
    const std::uint64_t name_hash = std::hash<std::string>{}(name_);
    for (std::size_t i = 0; i < phases_.size(); ++i) {
        phases_[i].validate();
        activity_draws_.push_back(
            util::Rng(name_hash ^ (i * 0x9e3779b97f4a7c15ULL)).gaussian());
    }
}

const Phase &
Job::currentPhase() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(!finished_, "currentPhase() on a finished job");
    return phases_[phase_index_];
}

std::size_t
Job::currentPhaseIndex() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(!finished_, "currentPhaseIndex() on a finished job");
    return phase_index_;
}

double
Job::phaseActivityDraw() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(!finished_, "phaseActivityDraw() on a finished job");
    return activity_draws_[phase_index_];
}

double
Job::advance(double instructions) PPEP_NONBLOCKING
{
    PPEP_ASSERT(instructions >= 0.0, "cannot advance backwards");
    double remaining = instructions;
    double consumed = 0.0;
    while (remaining > 0.0 && !finished_) {
        const Phase &p = phases_[phase_index_];
        const double left = p.inst_count - into_phase_;
        const double step = remaining < left ? remaining : left;
        into_phase_ += step;
        retired_ += step;
        consumed += step;
        remaining -= step;
        if (into_phase_ >= p.inst_count) {
            into_phase_ = 0.0;
            ++phase_index_;
            if (phase_index_ >= phases_.size()) {
                if (looping_)
                    phase_index_ = 0;
                else
                    finished_ = true;
            }
        }
    }
    return consumed;
}

double
Job::totalInstructions() const
{
    double total = 0.0;
    for (const auto &p : phases_)
        total += p.inst_count;
    return total;
}

void
Job::reset()
{
    phase_index_ = 0;
    into_phase_ = 0.0;
    retired_ = 0.0;
    finished_ = false;
}

const Phase &
Job::phase(std::size_t i) const
{
    PPEP_ASSERT(i < phases_.size(), "phase index out of range");
    return phases_[i];
}

} // namespace ppep::sim
