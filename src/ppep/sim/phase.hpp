/**
 * @file
 * Workload phase descriptors and jobs.
 *
 * A Phase holds the *per-instruction* microarchitectural characteristics of
 * a stretch of program execution: how many uops, cache accesses, branches,
 * misses, and leading loads each instruction generates, plus the
 * frequency-invariant stall component of its CPI. Interval analysis over
 * these rates is what makes the paper's Observations 1 and 2 emerge in the
 * simulator rather than being assumed.
 *
 * A Job is a sequence of phases a core executes; it tracks progress in
 * retired instructions.
 */

#ifndef PPEP_SIM_PHASE_HPP
#define PPEP_SIM_PHASE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/**
 * Per-instruction characteristics of one program phase.
 *
 * All `*_per_inst` fields are average event occurrences per retired
 * instruction and are VF-invariant by construction (Observation 1); the
 * memory side is expressed as leading loads per instruction plus the L3
 * hit/miss split, from which wall-clock memory time follows.
 */
struct Phase
{
    /** Micro-ops per instruction (E1). */
    double uops_per_inst = 1.3;
    /** FPU pipe assignments per instruction (E2). */
    double fpu_per_inst = 0.1;
    /** Instruction cache fetches per instruction (E3). */
    double ifetch_per_inst = 0.25;
    /** Data cache accesses per instruction (E4). */
    double dcache_per_inst = 0.4;
    /** L2 cache requests per instruction (E5). */
    double l2req_per_inst = 0.02;
    /** Retired branches per instruction (E6). */
    double branch_per_inst = 0.15;
    /** Retired mispredicted branches per instruction (E7). */
    double mispred_per_inst = 0.002;
    /** L2 misses per instruction (E8) — these become L3 accesses. */
    double l2miss_per_inst = 0.001;

    /**
     * Leading loads per instruction: off-core demand misses that stall the
     * core for the full memory latency (the LL-MAB approximation measures
     * their outstanding cycles as E12). A fraction of E8; memory-level
     * parallelism hides the rest.
     */
    double leading_per_inst = 0.0005;

    /** Fraction of L3 accesses that miss to DRAM. */
    double l3_miss_rate = 0.3;

    /**
     * Frequency-invariant stall CPI from non-memory resources (ROB/LSQ
     * pressure, long-latency ALU chains). Counted in Dispatch Stalls (E9)
     * but not in MAB Wait Cycles (E12).
     */
    double resource_stall_cpi = 0.3;

    /** Instructions this phase lasts. */
    double inst_count = 1e9;

    /** Sanity-check field ranges; panics on nonsense. */
    void validate() const;
};

/**
 * A runnable sequence of phases with an instruction-granular cursor.
 *
 * Jobs can be finite (run each phase once, then finish) or looping
 * (restart from the first phase forever — used for steady background
 * instances and microbenchmarks).
 */
class Job
{
  public:
    /** Construct from phases. @pre non-empty. */
    Job(std::string name, std::vector<Phase> phases, bool looping = false);

    /** Job/benchmark name (e.g. "433.milc"). */
    const std::string &name() const { return name_; }

    /**
     * Unit gaussian behind the current phase's hidden activity factor,
     * drawn once per phase at construction from the hash of name() and
     * the phase index. @pre !finished().
     */
    double phaseActivityDraw() const PPEP_NONBLOCKING;

    /** Current phase. @pre !finished(). */
    const Phase &currentPhase() const PPEP_NONBLOCKING;

    /** Index of the current phase. @pre !finished(). */
    std::size_t currentPhaseIndex() const PPEP_NONBLOCKING;

    /** True once every phase has been fully executed (never for loops). */
    bool finished() const PPEP_NONBLOCKING { return finished_; }

    /**
     * Consume @p instructions retired instructions, advancing through
     * phase boundaries. Returns the number actually consumed (less than
     * requested only if the job finishes mid-tick).
     */
    double advance(double instructions) PPEP_NONBLOCKING;

    /** Total instructions retired so far. */
    double instructionsRetired() const { return retired_; }

    /** Total instructions across all phases (one iteration). */
    double totalInstructions() const;

    /** Reset the cursor to the beginning. */
    void reset();

    /** Number of phases. */
    std::size_t phaseCount() const { return phases_.size(); }

    /** Phase by index (for inspection/tests). */
    const Phase &phase(std::size_t i) const;

  private:
    std::string name_;
    std::vector<Phase> phases_;
    /** phaseActivityDraw() of each phase. */
    std::vector<double> activity_draws_;
    bool looping_ = false;
    std::size_t phase_index_ = 0;
    double into_phase_ = 0.0; ///< instructions consumed in current phase
    double retired_ = 0.0;
    bool finished_ = false;
};

} // namespace ppep::sim

#endif // PPEP_SIM_PHASE_HPP
