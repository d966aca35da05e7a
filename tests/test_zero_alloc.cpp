/**
 * @file
 * Steady-state allocation audit: once warm, a governed interval on the
 * GovernorLoop::drive() path must perform zero heap allocations — the
 * property that keeps fleet-scale governing free of allocator
 * contention and latency spikes.
 *
 * The audit replaces global operator new in this binary with a counting
 * wrapper; counting is switched on only around the intervals under
 * test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include <ostream>
#include <streambuf>

#include "ppep/governor/energy_governor.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/arbiter.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/workloads/suite.hpp"

namespace {
std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ppep;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

struct Stack
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    model::Ppep ppep;

    Stack()
        : models([this] {
              model::Trainer trainer(cfg, 91);
              return trainer.trainAll(smallTrainingSet());
          }()),
          ppep(cfg, models.chip, models.pg)
    {
    }
};

/** Allocations observed during one drive() interval. */
std::size_t
allocationsPerInterval(governor::GovernorLoop &loop,
                       const governor::CapSchedule &schedule)
{
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    loop.drive(1, schedule);
    g_counting.store(false, std::memory_order_relaxed);
    return g_news.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, EnergyGovernorSteadyStateIntervalIsAllocationFree)
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::EnergyOptimalGovernor gov(stack.cfg, stack.ppep,
                                        governor::EnergyObjective::Edp);
    governor::GovernorLoop loop(chip, gov);
    const auto schedule = governor::CapSchedule::unlimited();

    loop.drive(5, schedule); // warm every scratch buffer
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
            << "interval " << i;
}

TEST(ZeroAlloc, CappingGovernorSteadyStateIntervalIsAllocationFree)
{
    Stack stack;
    stack.cfg.per_cu_voltage = true;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::PpepCappingGovernor gov(stack.cfg, stack.ppep);
    governor::GovernorLoop loop(chip, gov);
    const governor::CapSchedule schedule(60.0);

    loop.drive(5, schedule);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
            << "interval " << i;
}

TEST(ZeroAlloc, CappingGovernorSharedRailIntervalIsAllocationFree)
{
    // The FX-8320's shared rail, as fleets and the golden digests run
    // it: every rail level of the solver is searched. The cap walks
    // through a binding, an infeasible and an unlimited phase.
    const Stack stack;
    ASSERT_FALSE(stack.cfg.per_cu_voltage);
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::PpepCappingGovernor gov(stack.cfg, stack.ppep);
    governor::GovernorLoop loop(chip, gov);
    const governor::CapSchedule schedule(
        {{0, 60.0}, {8, 3.0}, {11, 1e300}, {13, 45.0}});

    loop.drive(5, schedule);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
            << "interval " << i;
}

/** Discards everything without ever touching the heap. */
class NullStreambuf : public std::streambuf
{
  protected:
    int
    overflow(int c) override
    {
        return c == traits_type::eof() ? 0 : c;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** A warmed telemetry sink must encode an interval allocation-free. */
template <typename Sink>
void
expectEncodeIsAllocationFree()
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    col.collect(2);
    const trace::IntervalRecord rec = col.collectInterval();
    const std::vector<std::size_t> cu_vf(stack.cfg.n_cus, 2);

    runtime::IntervalTelemetry t;
    t.index = 0;
    t.time_s = 0.2;
    t.rec = &rec;
    t.cu_vf = &cu_vf;
    t.cap_w = 80.0;
    t.predicted_power_w = 41.25;
    t.decision_latency_s = 3e-6;

    NullStreambuf null;
    std::ostream out(&null);
    Sink sink(out);
    for (int i = 0; i < 3; ++i) // warm the row buffer
        sink.onInterval(t);

    for (int i = 0; i < 10; ++i) {
        ++t.index;
        t.time_s += 0.2;
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        sink.onInterval(t);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

TEST(ZeroAlloc, CsvSinkEncodeIsAllocationFreeOnceWarm)
{
    expectEncodeIsAllocationFree<runtime::CsvSink>();
}

TEST(ZeroAlloc, JsonlSinkEncodeIsAllocationFreeOnceWarm)
{
    expectEncodeIsAllocationFree<runtime::JsonlSink>();
}

TEST(ZeroAlloc, TenantAttributionIsAllocationFree)
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    col.collect(2);
    const trace::IntervalRecord rec = col.collectInterval();

    const runtime::TenantAttributor attr(
        stack.cfg, stack.models.dynamic, stack.models.pg,
        {{"alpha", {0, 1, 2, 3}, {}}, {"beta", {4, 5, 6, 7}, {}}});
    auto out = attr.makeAttribution();
    attr.attributeInto(rec, true, out); // warm (nothing to warm, but)

    for (int i = 0; i < 10; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        attr.attributeInto(rec, (i % 2) == 0, out);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

TEST(ZeroAlloc, TenantSessionSteadyStateIntervalIsAllocationFree)
{
    // The full fleet path with tenants attached: drive() with per-
    // interval attribution and digest fan-out must stay allocation-free
    // once warm, or a mixed fleet would contend on the allocator.
    runtime::DigestSink digest;
    auto session =
        runtime::Session::builder(sim::fx8320Config())
            .seed(5)
            .pg(true)
            .trainingSeed(91)
            .trainingCombos(smallTrainingSet())
            .tenants({{"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
                      {"beta", {4, 5, 6, 7}, {{4, "CG", true}}}})
            .sink(digest)
            .build();

    session.drive(5); // warm every scratch buffer

    // The session's interval state persists across calls, so a warm
    // drive(1) — attribution, encoding, digest fan-out, sink flush —
    // touches the heap zero times.
    for (int i = 0; i < 20; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        session.drive(1);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "a warm governed interval with tenant attribution "
               "allocated";
    }
}

TEST(ZeroAlloc, RecalibratedSessionSteadyStateIntervalIsAllocationFree)
{
    // After a refit has been adopted, the governed loop runs on the
    // swapped-in generation — ring snapshotting, the maybeRefit fast
    // path, and the rebuilt (pre-warmed at the refit) governor must all
    // stay off the heap. max_generations=1 plus an effectively-infinite
    // cooldown keep any further refit (which allocates its design
    // matrix and candidate) out of the counted window.
    sim::FaultPlan plan;
    plan.power_drift_bias = 5e-4;
    plan.drift_clamp = 0.4;
    runtime::RecalibrationPolicy pol;
    pol.recal_divergence_w = 6.0;
    pol.ring_capacity = 64;
    pol.min_ring_fill = 32;
    pol.max_generations = 1;
    pol.cooldown_intervals = 1000000;
    runtime::DigestSink digest;
    auto session = runtime::Session::builder(sim::fx8320Config())
                       .seed(5)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(plan)
                       .recalibration(pol)
                       .sink(digest)
                       .build();

    session.drive(300); // drift, trigger, refit, adopt
    const runtime::Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    ASSERT_EQ(rc->generation(), 1u)
        << "the audit needs the swap to have happened";

    session.drive(5); // warm the post-swap scratch

    for (int i = 0; i < 20; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        session.drive(1);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "a warm governed interval on a recalibrated session "
               "allocated";
    }
}

TEST(ZeroAlloc, HardenedJitteredSessionIntervalIsAllocationFree)
{
    // Jittered intervals run more ticks than nominal through the shared
    // tick loop's sample scratch; together with failed read-outs and
    // dropped sensor samples on the hardened read-out, a warm interval
    // must still stay off the heap whatever tick count it draws.
    runtime::DigestSink digest;
    auto session =
        runtime::Session::builder(sim::fx8320Config())
            .seed(5)
            .trainingSeed(91)
            .trainingCombos(smallTrainingSet())
            .onePerCu({"EP", "CG", "458.sjeng", "EP"})
            .faults(sim::FaultPlan::parse(
                "jitter=0.5,jitter_max=2,msr=0.05,sensor_drop=0.1"))
            .sink(digest)
            .build();
    const std::size_t nominal = session.config().ticks_per_interval;

    // One interval sizes every fixed-shape buffer. The tick scratch
    // must already hold the longest jittered interval, so only one warm
    // interval is allowed before counting starts.
    session.drive(1);

    std::size_t longer = 0;
    for (int i = 0; i < 40; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        session.drive(1);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "a warm jittered hardened interval allocated";
        if (session.sampler()->lastHealth().ticks > nominal)
            ++longer;
    }
    EXPECT_GT(longer, 0u) << "no counted interval ran long";
}

/** Allocations observed during a chip's first tick. */
std::size_t
allocationsInFirstTick(sim::Chip &chip)
{
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    chip.tick();
    g_counting.store(false, std::memory_order_relaxed);
    return g_news.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, FreshChipFirstTickIsAllocationFree)
{
    // The chip sizes its tick result and scratch from its config at
    // construction, so not even the first tick warms anything. Two busy
    // cores leave gated CUs on the FX-8320 and idle cores on both.
    sim::Chip fx(sim::fx8320Config(), 5);
    fx.setPowerGatingEnabled(true);
    workloads::launch(fx, workloads::replicate("433.milc", 2), true);
    EXPECT_EQ(allocationsInFirstTick(fx), 0u) << "FX-8320, PG on";
    EXPECT_TRUE(fx.tick().truth.cu_gated.back());

    sim::Chip phenom(sim::phenomIIConfig(), 5);
    workloads::launch(phenom, workloads::replicate("433.milc", 2), true);
    EXPECT_EQ(allocationsInFirstTick(phenom), 0u) << "Phenom II";
}

TEST(ZeroAlloc, FreshCollectorFirstIntervalIsAllocationFree)
{
    // The Collector sizes its per-interval scratch at construction too;
    // only the caller's record is left to size, and here it comes
    // presized.
    sim::Chip chip(sim::fx8320Config(), 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector collector(chip);
    trace::IntervalRecord rec;
    rec.oracle.resize(chip.config().coreCount());
    rec.pmc.resize(chip.config().coreCount());
    rec.cu_vf.resize(chip.config().n_cus);

    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    collector.collectIntervalInto(rec);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u);
    EXPECT_GT(rec.busy_cores, 0u);
}

TEST(ZeroAlloc, ArbiterGatherDecideIsAllocationFreeOnceConfigured)
{
    // The fleet arbiter's whole hot path — depositing every session's
    // per-VF exploration into the SoA lanes and solving the global
    // allocation (hull build, sort, sweep, leftover split, hysteresis)
    // — runs inside the fleet's barrier completion step every
    // interval. configure() is the only allocating phase by contract.
    runtime::ArbiterSpec spec;
    spec.budget =
        ppep::governor::CapSchedule({{0, 400.0}, {64, 280.0}});
    spec.tiers = {{"rack0", 250.0}, {"rack1", 250.0}};
    constexpr std::size_t kLanes = 16;
    constexpr std::size_t kVf = 8;
    std::vector<runtime::FleetArbiter::SessionSetup> setups(kLanes);
    for (std::size_t s = 0; s < kLanes; ++s) {
        setups[s].n_vf = kVf;
        setups[s].priority = 1.0 + static_cast<double>(s % 3) * 0.5;
        setups[s].slo_floor_w = 4.0;
    }
    const auto arb = runtime::makeArbiter(spec, setups);

    std::vector<model::VfPrediction> rows(kLanes * kVf);
    for (std::size_t s = 0; s < kLanes; ++s)
        for (std::size_t k = 0; k < kVf; ++k) {
            auto &r = rows[s * kVf + k];
            r.chip_power_w = 8.0 + 3.0 * static_cast<double>(k) +
                             0.1 * static_cast<double>(s);
            r.total_ips = 1e9 * static_cast<double>(k + 1) /
                          (1.0 + 0.1 * static_cast<double>(k));
        }
    const auto oneInterval = [&](std::size_t i) {
        for (std::size_t s = 0; s < kLanes; ++s)
            arb->gather(s, rows.data() + s * kVf,
                        s % 5 == 4 ? 0 : kVf, // a blind lane too
                        18.0 + static_cast<double>(s));
        arb->decide(i);
    };
    for (std::size_t i = 0; i < 8; ++i) // warm (nothing to warm, but)
        oneInterval(i);

    for (std::size_t i = 0; i < 80; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        oneInterval(8 + i); // crosses the budget drop at 64
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

TEST(ZeroAlloc, CountingHookIsLive)
{
    // Sanity: the audit must actually observe allocations, or the
    // zero-counts above would be vacuous.
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    auto *p = new std::vector<double>(1024);
    g_counting.store(false, std::memory_order_relaxed);
    delete p;
    EXPECT_GE(g_news.load(std::memory_order_relaxed), 1u);
}

} // namespace
