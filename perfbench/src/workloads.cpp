#include "workloads.hpp"

#include <string>
#include <utility>

#include "ppep/runtime/session.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/util/rng.hpp"

namespace perfbench {

namespace rt = ppep::runtime;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;

namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kQuickSessions = 12;

/** Intervals per session and pass, sized so a pass outlasts the
 *  scheduler settling fresh worker threads (~1 s on a shared host).
 *  fleet_sim: ~0.8 s per 2-worker pass. fleet_replay: one recording,
 *  replayed whole by every pass. fleet_budget: ~3 s of lockstep rounds;
 *  1001 rounds give 1000 round latencies, ten of them beyond the p99.
 *  The budget drops half-way. */
constexpr std::size_t kSimIntervals = 500;
constexpr std::size_t kReplayIntervals = 500;
constexpr std::size_t kBudgetIntervals = 1001;

/** fleet_budget composition: Phenom II share, hardened and tenant
 *  sessions (FX only: attribution needs power gating). */
constexpr std::size_t kPhenomEvery = 4;   // every 4th session
constexpr std::size_t kHardenedEvery = 3; // every 3rd session
constexpr std::size_t kTenantEvery = 8;   // every 8th FX session

/**
 * Programs for @p slots CU slots: every suite program the same number of
 * times (give or take one), in a seeded order. The seed moves programs
 * between sessions and CUs, but the fleet's total work stays the same,
 * so timing does not depend on which programs a seed happened to draw.
 */
std::vector<std::string>
stratifiedPrograms(ppep::util::Rng &rng, std::size_t slots)
{
    const auto &all = wl::Suite::all();
    std::vector<std::string> out;
    out.reserve(slots);
    const std::size_t offset = rng.uniformInt(all.size());
    for (std::size_t k = 0; k < slots; ++k)
        out.push_back(all[(offset + k) % all.size()].name);
    for (std::size_t k = slots; k > 1; --k)
        std::swap(out[k - 1], out[rng.uniformInt(k)]);
    return out;
}

/** Exactly half of @p n sessions power-gated, in a seeded order. */
std::vector<bool>
halfGated(ppep::util::Rng &rng, std::size_t n)
{
    std::vector<bool> out(n, false);
    for (std::size_t k = 0; k < n / 2; ++k)
        out[k] = true;
    for (std::size_t k = n; k > 1; --k) {
        const std::size_t j = rng.uniformInt(k);
        const bool tmp = out[k - 1];
        out[k - 1] = out[j];
        out[j] = tmp;
    }
    return out;
}

/** The fleet default set: every single-program combination. */
std::vector<const wl::Combination *>
singleProgramCombos()
{
    std::vector<const wl::Combination *> out;
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() == 1)
            out.push_back(&c);
    return out;
}

/** Single programs plus multi-instance combinations of at most six
 *  programs, so every entry also trains on the six-core Phenom II. */
std::vector<const wl::Combination *>
atMostSixProgramCombos()
{
    auto out = singleProgramCombos();
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() >= 3 && c.instances.size() <= 6 &&
            out.size() < 70)
            out.push_back(&c);
    return out;
}

/** Two tenants interleaved over the CUs, one looping job per CU. */
std::vector<rt::TenantSpec>
tenantsFor(const sim::ChipConfig &cfg, const std::vector<std::string> &progs)
{
    std::vector<rt::TenantSpec> out(2);
    for (std::size_t t = 0; t < out.size(); ++t) {
        out[t].name = "tenant" + std::to_string(t);
        for (std::size_t cu = t; cu < cfg.n_cus; cu += out.size()) {
            const std::size_t first = cu * cfg.cores_per_cu;
            for (std::size_t c = 0; c < cfg.cores_per_cu; ++c)
                out[t].cores.push_back(first + c);
            out[t].jobs.push_back({first, progs[cu], true});
        }
    }
    return out;
}

/** Mild hardware faults: the hardened path retries and substitutes,
 *  but sessions rarely degrade. */
sim::FaultPlan
mildFaults()
{
    sim::FaultPlan p;
    p.msr_read_fail_p = 0.02;
    p.sensor_dropout_p = 0.01;
    p.diode_spike_p = 0.002;
    return p;
}

void
addSimSessions(Plan &plan, ppep::util::Rng &rng, std::size_t n)
{
    const std::size_t n_cus = plan.spec.cfg.n_cus;
    const auto programs = stratifiedPrograms(rng, n * n_cus);
    const auto gated = halfGated(rng, n);
    for (std::size_t i = 0; i < n; ++i) {
        rt::FleetSessionSpec ss;
        ss.name = "s" + std::to_string(i);
        ss.seed = rng.next();
        ss.pg = gated[i];
        ss.one_per_cu.assign(programs.begin() + i * n_cus,
                             programs.begin() + (i + 1) * n_cus);
        plan.spec.sessions.push_back(std::move(ss));
    }
}

/**
 * fleet_budget: the session mix is fixed by position (every 4th a
 * Phenom II, every 3rd hardened, every 8th FX with tenants); the seed
 * draws placements, chip and fault seeds, priorities and the budget.
 */
void
addBudgetSessions(Plan &plan, ppep::util::Rng &rng, std::size_t n)
{
    const sim::ChipConfig fx = sim::fx8320Config();
    const sim::ChipConfig phenom = sim::phenomIIConfig();
    std::size_t slots = 0;
    for (std::size_t i = 0; i < n; ++i)
        slots += i % kPhenomEvery == kPhenomEvery - 1 ? phenom.n_cus
                                                      : fx.n_cus;
    const auto programs = stratifiedPrograms(rng, slots);
    const auto gated = halfGated(rng, n);
    std::size_t next_slot = 0;
    std::size_t fx_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool is_phenom = i % kPhenomEvery == kPhenomEvery - 1;
        const sim::ChipConfig &cfg = is_phenom ? phenom : fx;
        rt::FleetSessionSpec ss;
        ss.name = "s" + std::to_string(i);
        ss.seed = rng.next();
        ss.cfg = cfg;
        ss.pg = cfg.pg_supported && gated[i];
        // PPEP capping needs the power-gating idle decomposition, which
        // the PG-less Phenom II does not train: those sessions run the
        // EDP policy, and the arbiter still prices their explorations.
        if (!is_phenom)
            ss.governor = rt::cappingGovernor();
        std::vector<std::string> progs(
            programs.begin() + static_cast<std::ptrdiff_t>(next_slot),
            programs.begin() +
                static_cast<std::ptrdiff_t>(next_slot + cfg.n_cus));
        next_slot += cfg.n_cus;
        if (!is_phenom && fx_count++ % kTenantEvery == 0) {
            ss.pg = true;
            ss.tenants = tenantsFor(cfg, progs);
        } else {
            ss.one_per_cu = std::move(progs);
        }
        if (i % kHardenedEvery == 0) {
            ss.faults = mildFaults();
            ss.fault_seed = rng.next();
        }
        ss.priority = rng.bernoulli(0.25) ? 2.0 : 1.0;
        plan.spec.sessions.push_back(std::move(ss));
    }

    // The global budget is a seeded share of the fleet's mean uncapped
    // draw (~50 W a session), and drops half-way through every pass.
    const double nominal_w = 50.0 * static_cast<double>(n);
    const double budget_w = nominal_w * rng.uniform(0.80, 0.85);
    const double drop_w = budget_w * rng.uniform(0.82, 0.86);
    rt::ArbiterSpec aspec;
    aspec.budget = ppep::governor::CapSchedule(
        {{0, budget_w}, {plan.spec.intervals / 2, drop_w}});
    plan.spec.arbiter = std::move(aspec);
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::FleetSim, Workload::FleetReplay,
                       Workload::FleetBudget})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::FleetSim:
        return "fleet_sim";
    case Workload::FleetReplay:
        return "fleet_replay";
    case Workload::FleetBudget:
        return "fleet_budget";
    }
    return "?";
}

Plan
makePlan(Workload w, std::uint64_t seed, bool quick)
{
    Plan plan;
    plan.kind = w;
    plan.spec.cfg = sim::fx8320Config();
    plan.spec.training_seed = 42;
    // fleet_sim and fleet_replay draw the same sessions from a seed.
    // Fleet sizes and the session mix are fixed; only placements,
    // seeds, priorities and the budget come from the workload seed.
    ppep::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
    const std::size_t n = quick ? kQuickSessions : kSessions;

    switch (w) {
    case Workload::FleetSim:
    case Workload::FleetReplay:
        plan.spec.intervals = w == Workload::FleetSim
                                  ? (quick ? 40 : kSimIntervals)
                                  : (quick ? 100 : kReplayIntervals);
        plan.configs = {plan.spec.cfg};
        plan.training = singleProgramCombos();
        addSimSessions(plan, rng, n);
        break;
    case Workload::FleetBudget:
        plan.spec.intervals = quick ? 40 : kBudgetIntervals;
        plan.configs = {sim::fx8320Config(), sim::phenomIIConfig()};
        plan.training = atMostSixProgramCombos();
        addBudgetSessions(plan, rng, n);
        // A lockstep round waits at a barrier for its slowest worker
        // every ~3 ms. Where the host deschedules virtual CPUs for
        // milliseconds at a time, two workers double the exposure: ten
        // 2-worker runs of identical code gave a round p99 from 3.5 to
        // 18 ms. The timed passes run on one worker (p99 within 1 %
        // run to run); the traced run keeps two, so the barrier wait
        // shows in the per-layer split.
        plan.workers = 1;
        break;
    }
    plan.spec.training_combos = plan.training;
    if (quick)
        plan.setup_reps = 1;
    return plan;
}

} // namespace perfbench
