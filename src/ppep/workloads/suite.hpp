/**
 * @file
 * Synthetic benchmark suite standing in for SPEC CPU2006 v1.2, PARSEC
 * v2.1, and NPB v3.3.1 (Sec. II).
 *
 * Each of the 52 programs the paper uses is represented by a profile: a
 * deterministic sequence of phases whose per-instruction characteristics
 * span the CPU-bound <-> memory-bound spectrum. The paper's two anchor
 * programs are modelled explicitly: 433.milc (memory-bound) and 458.sjeng
 * (CPU-bound). dedup, IS, and DC get rapid 20 ms-scale phase changes plus
 * short runtimes — the paper's outlier mechanism.
 *
 * The paper's 152 benchmark combinations are reproduced exactly in
 * structure: 61 SPEC multi-programmed (29 singles + 15 doubles +
 * 10 triples + 7 quads, the Fig. 6 x-axis), 51 PARSEC multi-threaded and
 * 40 NPB multi-threaded runs.
 */

#ifndef PPEP_WORKLOADS_SUITE_HPP
#define PPEP_WORKLOADS_SUITE_HPP

#include <memory>
#include <string>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/phase.hpp"

namespace ppep::workloads {

/** Benchmark suite tags. */
enum class SuiteId
{
    Spec,
    Parsec,
    Npb,
};

/** Short label ("SPE", "PAR", "NPB") as used in the paper's figures. */
std::string suiteLabel(SuiteId id);

/** How a program's phases evolve over its run. */
enum class PhaseStyle
{
    Steady,      ///< one dominant regime, mild drift
    Alternating, ///< two regimes (compute <-> memory) alternating
    RandomWalk,  ///< characteristics wander between phases
    Rapid,       ///< 20 ms-scale flips: stresses PMC multiplexing
};

/** One benchmark program: name, suite, and its phase sequence. */
struct BenchmarkProfile
{
    std::string name;
    SuiteId suite = SuiteId::Spec;
    std::vector<sim::Phase> phases;

    /** Total instructions over the whole run. */
    double totalInstructions() const;

    /** Instantiate a fresh Job executing this profile once. */
    std::unique_ptr<sim::Job> makeJob() const;

    /** Instantiate a Job that loops this profile forever. */
    std::unique_ptr<sim::Job> makeLoopingJob() const;
};

/** Access to the 52-program suite (built once, deterministic). */
class Suite
{
  public:
    /** All 52 programs: 29 SPEC, 13 PARSEC, 10 NPB. */
    static const std::vector<BenchmarkProfile> &all();

    /** Programs of one suite. */
    static std::vector<const BenchmarkProfile *> bySuite(SuiteId id);

    /** Lookup by exact name; fatal() if absent. */
    static const BenchmarkProfile &byName(const std::string &name);

    /** True if the program exists. */
    static bool exists(const std::string &name);
};

/**
 * One of the paper's 152 benchmark combinations: a named set of program
 * instances run concurrently. For SPEC these are distinct programs
 * (multi-programmed); for PARSEC/NPB they are N threads of one program.
 */
struct Combination
{
    /** e.g. "400+401+403+429" or "dedup.x4". */
    std::string name;
    SuiteId suite = SuiteId::Spec;
    /** One entry per concurrently running instance/thread. */
    std::vector<std::string> instances;
};

/** The full 152-combination list (61 SPEC + 51 PARSEC + 40 NPB). */
const std::vector<Combination> &allCombinations();

/**
 * Every single-program combination (49), in allCombinations() order:
 * the diverse one-time training set the daemons and benches share.
 */
std::vector<const Combination *> singleProgramCombinations();

/** Combinations of one suite. */
std::vector<const Combination *> combinationsBySuite(SuiteId id);

/**
 * Place a combination's instances onto a chip's cores.
 *
 * SPEC instances go one per CU (the paper pins multi-programmed runs to
 * distinct CUs); threaded instances spread across CUs first, then fill
 * second cores. Existing jobs are cleared. Returns the core ids used, in
 * instance order.
 *
 * @param looping run instances as infinite loops (steady-state studies)
 *                rather than single passes.
 */
std::vector<std::size_t> launch(sim::Chip &chip, const Combination &combo,
                                bool looping = false);

/**
 * Convenience: a combination of @p copies instances of one program
 * (the Sec. V background-workload sweeps, e.g. "433.milc x3").
 */
Combination replicate(const std::string &program, std::size_t copies);

} // namespace ppep::workloads

#endif // PPEP_WORKLOADS_SUITE_HPP
