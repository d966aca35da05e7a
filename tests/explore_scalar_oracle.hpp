/**
 * @file
 * Test-only golden reference for Ppep::exploreInto(): the scalar
 * per-VF sweep the batched VF×core kernel replaced.
 *
 * For each VF state it walks the cores one at a time through
 * EventPredictor::predictAt and DynamicPowerModel::splitScaled, and
 * prices the Eq. 2 idle line from the plan's lanes. The batched kernel
 * must match it bit for bit (NaN payloads aside, see
 * model/explore_kernel.hpp). Its TU is compiled with
 * -ffp-contract=off in every target that builds it, as ppep_model is:
 * an FMA-fused idle line would round differently from the kernel's.
 */

#ifndef PPEP_TESTS_EXPLORE_SCALAR_ORACLE_HPP
#define PPEP_TESTS_EXPLORE_SCALAR_ORACLE_HPP

#include <vector>

#include "ppep/model/ppep.hpp"
#include "ppep/trace/interval.hpp"

namespace ppep::oracle {

/**
 * Predictions at every VF state of @p ppep for the interval in @p rec,
 * into @p out; @p scratch.obs holds the per-core observations. Both
 * buffers are reused across calls.
 */
void exploreScalar(const model::Ppep &ppep,
                   const trace::IntervalRecord &rec,
                   std::vector<model::VfPrediction> &out,
                   model::ExploreScratch &scratch);

} // namespace ppep::oracle

#endif // PPEP_TESTS_EXPLORE_SCALAR_ORACLE_HPP
