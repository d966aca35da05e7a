/**
 * @file
 * Pinned model bytes: the FNV-1a hash of what `saveModels` writes for
 * two small, fixed cold trainings.
 *
 * The Trainer's fits must not depend on how its simulated experiments
 * are scheduled: the same configuration, seed and training set must
 * give the same file, byte for byte, whatever runs the experiments and
 * in whatever order they finish. These constants do not move with the
 * code. A change that alters simulated behaviour or a fit on purpose
 * updates them in the same commit and says why.
 *
 * The binary carries the `concurrency` label, so the TSan job trains
 * through the Trainer's worker pool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "ppep/model/serialization.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/util/hash.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

/** The first @p n combinations with exactly @p instances programs. */
std::vector<const workloads::Combination *>
firstCombos(std::size_t instances, std::size_t n)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == instances && out.size() < n)
            out.push_back(&c);
    return out;
}

std::uint64_t
modelBytesDigest(const sim::ChipConfig &cfg, std::uint64_t seed,
                 const std::vector<const workloads::Combination *> &combos)
{
    const model::TrainedModels models =
        model::Trainer(cfg, seed).trainAll(combos);
    std::ostringstream os;
    model::saveModels(models, os);
    const std::string bytes = os.str();
    return util::fnv1a(bytes.data(), bytes.size());
}

void
expectDigest(std::uint64_t got, std::uint64_t want)
{
    std::ostringstream hex;
    hex << "0x" << std::hex << got << "ULL";
    EXPECT_EQ(got, want) << "saveModels bytes hash to " << hex.str();
}

TEST(TrainedModelBytes, Fx8320WithPgOnSingleProgramSet)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    ASSERT_TRUE(cfg.pg_supported);
    expectDigest(modelBytesDigest(cfg, 2301, firstCombos(1, 4)),
                 0xce4ad026f850b7ebULL);
}

TEST(TrainedModelBytes, PhenomIIX6OnMixedSet)
{
    auto combos = firstCombos(1, 3);
    for (const auto *c : firstCombos(2, 1))
        combos.push_back(c);
    expectDigest(modelBytesDigest(sim::phenomIIConfig(), 2302, combos),
                 0x433405fb1d0dbef7ULL);
}

} // namespace
