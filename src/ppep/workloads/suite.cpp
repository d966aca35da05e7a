#include "ppep/workloads/suite.hpp"

#include "ppep/workloads/builder.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "ppep/util/logging.hpp"
#include "ppep/util/rng.hpp"

namespace ppep::workloads {

namespace {

/** Compact per-program characterisation, expanded into phases below. */
struct Traits
{
    const char *name;
    SuiteId suite;
    double mem;     ///< memory intensity in [0,1]
    double dram;    ///< DRAM share of L3 accesses in [0,1]
    double fpu;     ///< FPU ops per instruction
    double branch;  ///< branches per instruction
    double mispred; ///< mispredict rate (fraction of branches)
    double stall;   ///< resource-stall CPI
    PhaseStyle style;
    double length_gi; ///< total length, billions of instructions
};

// Characteristics approximate published characterisations of each
// program; the anchors are 433.milc (memory-bound) and 458.sjeng
// (CPU-bound), per the paper's Sec. V case studies.
const Traits kTraits[] = {
    // --- SPEC CPU2006 (29) ---
    {"400.perlbench", SuiteId::Spec, 0.18, 0.30, 0.02, 0.21, 0.050,
     0.32, PhaseStyle::RandomWalk, 12.0},
    {"401.bzip2", SuiteId::Spec, 0.32, 0.35, 0.01, 0.16, 0.070,
     0.38, PhaseStyle::Alternating, 10.5},
    {"403.gcc", SuiteId::Spec, 0.38, 0.45, 0.01, 0.20, 0.045,
     0.35, PhaseStyle::RandomWalk, 9.0},
    {"410.bwaves", SuiteId::Spec, 0.70, 0.65, 0.52, 0.05, 0.010,
     0.50, PhaseStyle::Steady, 15.0},
    {"416.gamess", SuiteId::Spec, 0.08, 0.20, 0.46, 0.09, 0.015,
     0.30, PhaseStyle::Steady, 15.0},
    {"429.mcf", SuiteId::Spec, 0.95, 0.85, 0.01, 0.19, 0.060,
     0.42, PhaseStyle::Steady, 7.5},
    {"433.milc", SuiteId::Spec, 0.85, 0.80, 0.35, 0.10, 0.018,
     0.45, PhaseStyle::Steady, 10.5},
    {"434.zeusmp", SuiteId::Spec, 0.50, 0.55, 0.50, 0.06, 0.012,
     0.45, PhaseStyle::Steady, 13.5},
    {"435.gromacs", SuiteId::Spec, 0.12, 0.25, 0.55, 0.07, 0.014,
     0.28, PhaseStyle::Steady, 15.0},
    {"436.cactusADM", SuiteId::Spec, 0.60, 0.60, 0.60, 0.03, 0.008,
     0.52, PhaseStyle::Steady, 13.5},
    {"437.leslie3d", SuiteId::Spec, 0.65, 0.60, 0.50, 0.05, 0.010,
     0.48, PhaseStyle::Steady, 13.5},
    {"444.namd", SuiteId::Spec, 0.10, 0.20, 0.60, 0.05, 0.010,
     0.26, PhaseStyle::Steady, 16.5},
    {"445.gobmk", SuiteId::Spec, 0.15, 0.25, 0.02, 0.22, 0.090,
     0.34, PhaseStyle::RandomWalk, 10.5},
    {"447.dealII", SuiteId::Spec, 0.30, 0.40, 0.42, 0.13, 0.025,
     0.33, PhaseStyle::Steady, 12.0},
    {"450.soplex", SuiteId::Spec, 0.60, 0.60, 0.35, 0.14, 0.030,
     0.40, PhaseStyle::Alternating, 9.0},
    {"453.povray", SuiteId::Spec, 0.06, 0.15, 0.40, 0.16, 0.030,
     0.28, PhaseStyle::Steady, 13.5},
    {"454.calculix", SuiteId::Spec, 0.20, 0.30, 0.50, 0.07, 0.012,
     0.32, PhaseStyle::Steady, 15.0},
    {"456.hmmer", SuiteId::Spec, 0.05, 0.15, 0.02, 0.10, 0.020,
     0.24, PhaseStyle::Steady, 15.0},
    {"458.sjeng", SuiteId::Spec, 0.05, 0.20, 0.01, 0.17, 0.080,
     0.30, PhaseStyle::Steady, 12.0},
    {"459.GemsFDTD", SuiteId::Spec, 0.75, 0.70, 0.50, 0.04, 0.008,
     0.50, PhaseStyle::Steady, 12.0},
    {"462.libquantum", SuiteId::Spec, 0.80, 0.90, 0.05, 0.14, 0.010,
     0.40, PhaseStyle::Steady, 10.5},
    {"464.h264ref", SuiteId::Spec, 0.15, 0.25, 0.10, 0.12, 0.030,
     0.30, PhaseStyle::Alternating, 13.5},
    {"465.tonto", SuiteId::Spec, 0.25, 0.35, 0.50, 0.09, 0.016,
     0.34, PhaseStyle::Steady, 13.5},
    {"470.lbm", SuiteId::Spec, 0.90, 0.90, 0.45, 0.02, 0.005,
     0.55, PhaseStyle::Steady, 10.5},
    {"471.omnetpp", SuiteId::Spec, 0.60, 0.55, 0.01, 0.20, 0.045,
     0.36, PhaseStyle::RandomWalk, 9.0},
    {"473.astar", SuiteId::Spec, 0.50, 0.50, 0.02, 0.18, 0.065,
     0.36, PhaseStyle::RandomWalk, 10.5},
    {"481.wrf", SuiteId::Spec, 0.50, 0.50, 0.50, 0.08, 0.014,
     0.42, PhaseStyle::Alternating, 13.5},
    {"482.sphinx3", SuiteId::Spec, 0.55, 0.50, 0.40, 0.10, 0.020,
     0.38, PhaseStyle::Steady, 12.0},
    {"483.xalancbmk", SuiteId::Spec, 0.45, 0.45, 0.01, 0.23, 0.040,
     0.34, PhaseStyle::RandomWalk, 9.0},
    // --- PARSEC (13) ---
    {"blackscholes", SuiteId::Parsec, 0.08, 0.20, 0.50, 0.06, 0.010,
     0.26, PhaseStyle::Steady, 10.5},
    {"bodytrack", SuiteId::Parsec, 0.30, 0.35, 0.30, 0.12, 0.025,
     0.32, PhaseStyle::Alternating, 9.0},
    {"canneal", SuiteId::Parsec, 0.80, 0.70, 0.05, 0.15, 0.045,
     0.40, PhaseStyle::Steady, 7.5},
    {"dedup", SuiteId::Parsec, 0.50, 0.50, 0.02, 0.16, 0.040,
     0.36, PhaseStyle::Rapid, 2.7},
    {"facesim", SuiteId::Parsec, 0.50, 0.50, 0.50, 0.07, 0.012,
     0.42, PhaseStyle::Steady, 12.0},
    {"ferret", SuiteId::Parsec, 0.45, 0.45, 0.25, 0.13, 0.028,
     0.36, PhaseStyle::Alternating, 10.5},
    {"fluidanimate", SuiteId::Parsec, 0.50, 0.50, 0.45, 0.08, 0.014,
     0.40, PhaseStyle::Steady, 10.5},
    {"freqmine", SuiteId::Parsec, 0.40, 0.45, 0.03, 0.17, 0.035,
     0.34, PhaseStyle::RandomWalk, 10.5},
    {"raytrace", SuiteId::Parsec, 0.35, 0.35, 0.40, 0.12, 0.022,
     0.32, PhaseStyle::Steady, 10.5},
    {"streamcluster", SuiteId::Parsec, 0.85, 0.80, 0.30, 0.06, 0.010,
     0.48, PhaseStyle::Steady, 9.0},
    {"swaptions", SuiteId::Parsec, 0.05, 0.15, 0.45, 0.08, 0.014,
     0.26, PhaseStyle::Steady, 12.0},
    {"vips", SuiteId::Parsec, 0.35, 0.40, 0.30, 0.11, 0.020,
     0.34, PhaseStyle::Alternating, 10.5},
    {"x264", SuiteId::Parsec, 0.25, 0.30, 0.20, 0.13, 0.030,
     0.32, PhaseStyle::Alternating, 10.5},
    // --- NPB (10) ---
    {"BT", SuiteId::Npb, 0.50, 0.55, 0.55, 0.04, 0.008,
     0.45, PhaseStyle::Steady, 13.5},
    {"CG", SuiteId::Npb, 0.85, 0.75, 0.40, 0.06, 0.010,
     0.50, PhaseStyle::Steady, 9.0},
    {"DC", SuiteId::Npb, 0.70, 0.65, 0.05, 0.15, 0.035,
     0.40, PhaseStyle::Rapid, 4.2},
    {"EP", SuiteId::Npb, 0.03, 0.10, 0.55, 0.07, 0.012,
     0.24, PhaseStyle::Steady, 13.5},
    {"FT", SuiteId::Npb, 0.65, 0.60, 0.50, 0.04, 0.008,
     0.48, PhaseStyle::Alternating, 12.0},
    {"IS", SuiteId::Npb, 0.75, 0.70, 0.02, 0.10, 0.020,
     0.42, PhaseStyle::Rapid, 2.4},
    {"LU", SuiteId::Npb, 0.55, 0.55, 0.52, 0.05, 0.009,
     0.44, PhaseStyle::Steady, 13.5},
    {"MG", SuiteId::Npb, 0.70, 0.65, 0.48, 0.04, 0.008,
     0.48, PhaseStyle::Steady, 12.0},
    {"SP", SuiteId::Npb, 0.60, 0.60, 0.52, 0.04, 0.008,
     0.46, PhaseStyle::Steady, 13.5},
    {"UA", SuiteId::Npb, 0.50, 0.50, 0.45, 0.08, 0.014,
     0.42, PhaseStyle::RandomWalk, 12.0},
};

/** Local alias: the shared mapping lives in builder.hpp. */
sim::Phase
makePhase(double mem, double dram, double fpu, double branch,
          double mispred, double stall, double inst_count)
{
    return derivePhase(mem, dram, fpu, branch, mispred, stall,
                       inst_count);
}

/** Expand a trait row into its deterministic phase sequence. */
std::vector<sim::Phase>
buildPhases(const Traits &t)
{
    util::Rng rng(std::hash<std::string>{}(t.name) ^ 0xA5A5A5A5ULL);
    const double total = t.length_gi * 1e9;
    std::vector<sim::Phase> phases;

    auto jitter = [&rng](double v, double sd) {
        return v * std::max(0.2, 1.0 + rng.gaussian(0.0, sd));
    };

    switch (t.style) {
      case PhaseStyle::Steady: {
        const std::size_t n = 4 + rng.uniformInt(3);
        for (std::size_t i = 0; i < n; ++i) {
            phases.push_back(makePhase(
                jitter(t.mem, 0.08), jitter(t.dram, 0.05),
                jitter(t.fpu, 0.06), jitter(t.branch, 0.05),
                jitter(t.mispred, 0.08), jitter(t.stall, 0.06),
                jitter(total / static_cast<double>(n), 0.15)));
        }
        break;
      }
      case PhaseStyle::Alternating: {
        const std::size_t n = 6 + rng.uniformInt(5);
        for (std::size_t i = 0; i < n; ++i) {
            const bool hot = (i % 2) == 0;
            const double mem = t.mem * (hot ? 1.25 : 0.70);
            const double stall = t.stall * (hot ? 1.15 : 0.88);
            phases.push_back(makePhase(
                jitter(mem, 0.07), jitter(t.dram, 0.05),
                jitter(t.fpu * (hot ? 0.85 : 1.10), 0.06),
                jitter(t.branch, 0.05), jitter(t.mispred, 0.08),
                jitter(stall, 0.06),
                jitter(total / static_cast<double>(n), 0.20)));
        }
        break;
      }
      case PhaseStyle::RandomWalk: {
        const std::size_t n = 7 + rng.uniformInt(5);
        double mem = t.mem;
        double stall = t.stall;
        for (std::size_t i = 0; i < n; ++i) {
            mem = std::clamp(mem * (1.0 + rng.gaussian(0.0, 0.10)),
                             0.02, 1.0);
            stall = std::clamp(stall * (1.0 + rng.gaussian(0.0, 0.06)),
                               0.05, 1.2);
            phases.push_back(makePhase(
                mem, jitter(t.dram, 0.06), jitter(t.fpu, 0.08),
                jitter(t.branch, 0.06), jitter(t.mispred, 0.10), stall,
                jitter(total / static_cast<double>(n), 0.25)));
        }
        break;
      }
      case PhaseStyle::Rapid: {
        // Phases at the 20 ms multiplexing timescale (a few e7 inst).
        std::size_t n = 0;
        double budget = total;
        while (budget > 0.0 && n < 200) {
            const double len =
                std::min(budget, rng.uniform(1.5e7, 6e7));
            const bool hot = (n % 2) == 0;
            phases.push_back(makePhase(
                jitter(t.mem * (hot ? 1.5 : 0.35), 0.10),
                jitter(t.dram, 0.06),
                jitter(t.fpu * (hot ? 0.7 : 1.3), 0.10),
                jitter(t.branch, 0.08), jitter(t.mispred, 0.12),
                jitter(t.stall * (hot ? 1.3 : 0.7), 0.10), len));
            budget -= len;
            ++n;
        }
        break;
      }
    }
    PPEP_ASSERT(!phases.empty(), "profile '", t.name, "' has no phases");
    return phases;
}

std::vector<BenchmarkProfile>
buildSuite()
{
    std::vector<BenchmarkProfile> out;
    for (const auto &t : kTraits) {
        BenchmarkProfile p;
        p.name = t.name;
        p.suite = t.suite;
        p.phases = buildPhases(t);
        out.push_back(std::move(p));
    }
    return out;
}

/** SPEC numeric id prefix: "400.perlbench" -> "400". */
std::string
specId(const std::string &name)
{
    const auto dot = name.find('.');
    PPEP_ASSERT(dot != std::string::npos, "not a SPEC name: ", name);
    return name.substr(0, dot);
}

/** Find the full SPEC program name from its numeric id. */
std::string
specByNumber(const std::string &id)
{
    for (const auto &t : kTraits) {
        if (t.suite == SuiteId::Spec && specId(t.name) == id)
            return t.name;
    }
    PPEP_PANIC("unknown SPEC id ", id);
}

std::vector<Combination>
buildCombinations()
{
    std::vector<Combination> combos;

    // SPEC singles: all 29 programs.
    for (const auto &t : kTraits) {
        if (t.suite != SuiteId::Spec)
            continue;
        combos.push_back({specId(t.name), SuiteId::Spec, {t.name}});
    }

    // SPEC multi-programmed groups, exactly the Fig. 6 x-axis.
    const std::vector<std::vector<const char *>> groups = {
        // 15 doubles
        {"400", "401"}, {"403", "429"}, {"445", "456"}, {"458", "462"},
        {"464", "471"}, {"473", "483"}, {"410", "416"}, {"433", "434"},
        {"435", "436"}, {"437", "444"}, {"447", "450"}, {"453", "454"},
        {"459", "465"}, {"470", "481"}, {"482", "429"},
        // 10 triples
        {"400", "401", "403"}, {"429", "445", "456"},
        {"458", "462", "464"}, {"471", "473", "483"},
        {"410", "416", "433"}, {"434", "435", "436"},
        {"437", "444", "447"}, {"450", "453", "454"},
        {"459", "465", "470"}, {"481", "482", "429"},
        // 7 quads
        {"400", "401", "403", "429"}, {"445", "456", "458", "462"},
        {"464", "471", "473", "483"}, {"410", "416", "433", "434"},
        {"435", "436", "437", "444"}, {"447", "450", "453", "454"},
        {"459", "465", "470", "481"},
    };
    for (const auto &g : groups) {
        Combination c;
        c.suite = SuiteId::Spec;
        for (const char *id : g) {
            if (!c.name.empty())
                c.name += "+";
            c.name += id;
            c.instances.push_back(specByNumber(id));
        }
        combos.push_back(std::move(c));
    }

    // PARSEC: 13 programs x {1,2,4,8} threads = 52, minus freqmine.x8
    // (the paper's odd 51st count — freqmine is the OpenMP exception).
    for (const auto &t : kTraits) {
        if (t.suite != SuiteId::Parsec)
            continue;
        for (std::size_t threads : {1, 2, 4, 8}) {
            if (std::string(t.name) == "freqmine" && threads == 8)
                continue;
            Combination c;
            c.suite = SuiteId::Parsec;
            c.name = std::string(t.name) + ".x" + std::to_string(threads);
            c.instances.assign(threads, t.name);
            combos.push_back(std::move(c));
        }
    }

    // NPB: 10 programs x {1,2,4,8} threads = 40.
    for (const auto &t : kTraits) {
        if (t.suite != SuiteId::Npb)
            continue;
        for (std::size_t threads : {1, 2, 4, 8}) {
            Combination c;
            c.suite = SuiteId::Npb;
            c.name = std::string(t.name) + ".x" + std::to_string(threads);
            c.instances.assign(threads, t.name);
            combos.push_back(std::move(c));
        }
    }

    PPEP_ASSERT(combos.size() == 152, "expected 152 combinations, got ",
                combos.size());
    return combos;
}

} // namespace

std::string
suiteLabel(SuiteId id)
{
    switch (id) {
      case SuiteId::Spec:
        return "SPE";
      case SuiteId::Parsec:
        return "PAR";
      case SuiteId::Npb:
        return "NPB";
    }
    PPEP_PANIC("bad suite id");
}

double
BenchmarkProfile::totalInstructions() const
{
    double total = 0.0;
    for (const auto &p : phases)
        total += p.inst_count;
    return total;
}

std::unique_ptr<sim::Job>
BenchmarkProfile::makeJob() const
{
    return std::make_unique<sim::Job>(name, phases, /*looping=*/false);
}

std::unique_ptr<sim::Job>
BenchmarkProfile::makeLoopingJob() const
{
    return std::make_unique<sim::Job>(name, phases, /*looping=*/true);
}

const std::vector<BenchmarkProfile> &
Suite::all()
{
    static const std::vector<BenchmarkProfile> suite = buildSuite();
    return suite;
}

std::vector<const BenchmarkProfile *>
Suite::bySuite(SuiteId id)
{
    std::vector<const BenchmarkProfile *> out;
    for (const auto &p : all()) {
        if (p.suite == id)
            out.push_back(&p);
    }
    return out;
}

const BenchmarkProfile &
Suite::byName(const std::string &name)
{
    for (const auto &p : all()) {
        if (p.name == name)
            return p;
    }
    PPEP_FATAL("unknown benchmark: ", name);
}

bool
Suite::exists(const std::string &name)
{
    for (const auto &p : all()) {
        if (p.name == name)
            return true;
    }
    return false;
}

const std::vector<Combination> &
allCombinations()
{
    static const std::vector<Combination> combos = buildCombinations();
    return combos;
}

std::vector<const Combination *>
singleProgramCombinations()
{
    std::vector<const Combination *> out;
    for (const auto &c : allCombinations()) {
        if (c.instances.size() == 1)
            out.push_back(&c);
    }
    return out;
}

std::vector<const Combination *>
combinationsBySuite(SuiteId id)
{
    std::vector<const Combination *> out;
    for (const auto &c : allCombinations()) {
        if (c.suite == id)
            out.push_back(&c);
    }
    return out;
}

std::vector<std::size_t>
launch(sim::Chip &chip, const Combination &combo, bool looping)
{
    const auto &cfg = chip.config();
    PPEP_ASSERT(combo.instances.size() <= cfg.coreCount(),
                "combination '", combo.name, "' needs ",
                combo.instances.size(), " cores; chip has ",
                cfg.coreCount());

    for (std::size_t c = 0; c < cfg.coreCount(); ++c)
        chip.clearJob(c);

    std::vector<std::size_t> cores;
    for (std::size_t i = 0; i < combo.instances.size(); ++i) {
        // Spread across CUs first (instance i -> CU i%n, core i/n within
        // the CU); multi-programmed SPEC instances thus land one per CU,
        // matching the paper's pinning.
        const std::size_t cu = i % cfg.n_cus;
        const std::size_t slot = i / cfg.n_cus;
        PPEP_ASSERT(slot < cfg.cores_per_cu, "placement overflow");
        const std::size_t core = cu * cfg.cores_per_cu + slot;
        const auto &prof = Suite::byName(combo.instances[i]);
        chip.setJob(core,
                    looping ? prof.makeLoopingJob() : prof.makeJob());
        cores.push_back(core);
    }
    return cores;
}

sim::Phase
derivePhase(double mem, double dram, double fpu, double branch,
            double mispred, double stall, double inst_count)
{
    mem = std::clamp(mem, 0.0, 1.0);
    dram = std::clamp(dram, 0.0, 1.0);

    sim::Phase p;
    p.fpu_per_inst = std::max(0.0, fpu);
    p.uops_per_inst = 1.15 + 0.40 * p.fpu_per_inst + 0.10 * mem;
    p.branch_per_inst = std::clamp(branch, 0.0, 0.5);
    p.ifetch_per_inst = 0.22 + 0.30 * p.branch_per_inst;
    p.dcache_per_inst = 0.30 + 0.25 * mem + 0.10 * p.fpu_per_inst;
    p.l2req_per_inst = 0.008 + 0.055 * mem;
    p.mispred_per_inst =
        p.branch_per_inst * std::clamp(mispred, 0.0, 0.5);
    p.l2miss_per_inst = p.l2req_per_inst * (0.10 + 0.40 * mem);
    p.leading_per_inst = p.l2miss_per_inst * (0.07 + 0.10 * dram);
    p.l3_miss_rate = 0.15 + 0.75 * dram;
    p.resource_stall_cpi = std::max(0.05, stall);
    p.inst_count = inst_count;
    p.validate();
    return p;
}

Combination
replicate(const std::string &program, std::size_t copies)
{
    PPEP_ASSERT(copies >= 1, "need at least one copy");
    const auto &prof = Suite::byName(program);
    Combination c;
    c.suite = prof.suite;
    c.name = program + " x" + std::to_string(copies);
    c.instances.assign(copies, program);
    return c;
}

} // namespace ppep::workloads
