/**
 * @file
 * The reactive baseline power-capping policy (paper Sec. V-B, Fig. 7).
 *
 * "A control loop will change the VF state and spend some time
 * determining the current power usage. If the power usage is not yet
 * under the cap, this VF state is lowered and the process repeats" — one
 * step per 200 ms interval, so a large cap swing takes many intervals to
 * track (the paper measures 2.8 s vs. PPEP's 0.2 s).
 */

#ifndef PPEP_GOVERNOR_ITERATIVE_CAPPING_HPP
#define PPEP_GOVERNOR_ITERATIVE_CAPPING_HPP

#include "ppep/governor/governor.hpp"

namespace ppep::governor {

/** One-VF-step-per-interval reactive capping. */
class IterativeCappingGovernor : public Governor
{
  public:
    /** @param cfg chip description (CU count + VF table). */
    explicit IterativeCappingGovernor(const sim::ChipConfig &cfg);

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                    double cap_w) override;

    std::string name() const override { return "simple-iterative"; }

  private:
    const sim::ChipConfig &cfg_;
    std::vector<std::size_t> cu_vf_;
    std::size_t rr_ = 0; ///< round-robin CU cursor
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_ITERATIVE_CAPPING_HPP
