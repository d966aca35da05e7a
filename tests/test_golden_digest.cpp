/**
 * @file
 * Golden telemetry digests: the absolute DigestSink value of small,
 * fixed governed runs, pinned as constants.
 *
 * Every other determinism test compares two runs of the same build
 * (serial vs threaded, live vs replayed, run() vs drive()), so a change
 * that shifts both sides of such a comparison still passes it. These
 * constants do not move with the code: a refactor of the interval
 * pipeline must leave every one of them bit-identical. A change that
 * alters simulated or governed behaviour on purpose (a new NB solver,
 * a retuned governor) updates the constants here in the same commit
 * and says why.
 *
 * The constants hold for the default build flags (no PPEP_NATIVE): the
 * sim and model libraries pin -ffp-contract=off, but the governor and
 * runtime layers do not.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "ppep/model/trainer.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/sampler.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
using governor::CapSchedule;
using runtime::DigestSink;
using runtime::Fleet;
using runtime::FleetResult;
using runtime::FleetSessionSpec;
using runtime::FleetSpec;
using runtime::Session;

std::vector<const workloads::Combination *>
smallTrainingSet()
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < 8)
            out.push_back(&c);
    return out;
}

const model::TrainedModels &
fxModels()
{
    static const model::TrainedModels m =
        model::Trainer(sim::fx8320Config(), 91)
            .trainAll(smallTrainingSet());
    return m;
}

/** Per-process cache dir (ctest runs each TEST as its own process). */
std::string
cacheDir()
{
    static const std::string dir = [] {
        const std::string d = test::tempPath("golden_cache");
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v << "ULL";
    return os.str();
}

void
expectDigest(std::uint64_t got, std::uint64_t want, const std::string &what)
{
    EXPECT_EQ(got, want) << what << ": digest " << hex(got)
                         << ", golden " << hex(want);
}

template <std::size_t N>
void
expectFleetDigests(const FleetResult &res,
                   const std::array<std::uint64_t, N> &want,
                   const std::string &what)
{
    ASSERT_EQ(res.failed, 0u) << what;
    ASSERT_EQ(res.sessions.size(), N) << what;
    for (std::size_t i = 0; i < N; ++i)
        expectDigest(res.sessions[i].telemetry_digest, want[i],
                     what + " session " + std::to_string(i));
}

Session::Builder
fxSession(DigestSink &digest)
{
    auto b = Session::builder(sim::fx8320Config());
    b.seed(11).models(fxModels()).warmup(2).sink(digest);
    return b;
}

FleetSpec
fleetSpec(std::size_t n_sessions, std::size_t intervals)
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng",
                                                      "433.milc"};
    FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.store.emplace(cacheDir());
    spec.warmup = 1;
    spec.intervals = intervals;
    for (std::size_t i = 0; i < n_sessions; ++i) {
        FleetSessionSpec ss;
        ss.seed = 7 + i;
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = {programs[i % programs.size()],
                         programs[(i + 1) % programs.size()]};
        spec.sessions.push_back(std::move(ss));
    }
    return spec;
}

/** Two FX-8320 and two Phenom II sessions. */
FleetSpec
mixedSpec(std::size_t intervals)
{
    FleetSpec spec = fleetSpec(4, intervals);
    for (std::size_t i : {1, 3}) {
        spec.sessions[i].cfg = sim::phenomIIConfig();
        spec.sessions[i].pg = false;
    }
    return spec;
}

TEST(GoldenDigest, PlainEdpSession)
{
    DigestSink digest;
    auto session =
        fxSession(digest).onePerCu({"EP", "CG", "458.sjeng", "433.milc"})
            .build();
    ASSERT_EQ(session.drive(12), 12u);
    expectDigest(digest.digest(), 0x9d6c1530ed079d3dULL, "plain EDP session");
}

TEST(GoldenDigest, HardenedSessionUnderSeededFaults)
{
    DigestSink digest;
    auto session =
        fxSession(digest)
            .onePerCu({"CG", "EP", "433.milc"})
            .faults(sim::FaultPlan::parse(
                "msr=0.2,sensor_drop=0.1,diode_spike=0.05,jitter=0.2"))
            .faultSeed(5)
            .build();
    ASSERT_EQ(session.drive(12), 12u);
    expectDigest(digest.digest(), 0x59d25a254451cd32ULL, "hardened session");
}

TEST(GoldenDigest, TenantSession)
{
    DigestSink digest;
    auto session =
        fxSession(digest)
            .pg(true)
            .tenants({{"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
                      {"beta", {4, 5, 6, 7}, {{4, "CG", true}}}})
            .build();
    ASSERT_EQ(session.drive(12), 12u);
    expectDigest(digest.digest(), 0x966da3481df0a5e2ULL, "tenant session");
}

TEST(GoldenDigest, SessionUnderSteppedCapSchedule)
{
    DigestSink digest;
    auto session =
        fxSession(digest)
            .onePerCu({"EP", "EP", "CG", "458.sjeng"})
            .governor(runtime::cappingGovernor())
            .schedule(CapSchedule({{0, 120.0}, {4, 70.0}, {8, 50.0}}))
            .build();
    ASSERT_EQ(session.run(12).size(), 12u);
    expectDigest(digest.digest(), 0x1b81abd99c69e014ULL, "capped session");
}

TEST(GoldenDigest, MixedFleetAtOneAndThreeThreads)
{
    Fleet fleet(mixedSpec(8));
    const std::array<std::uint64_t, 4> want = {
        0xdb25727192cbd3eaULL, 0xa1242d32e19a11d5ULL,
        0x9e1be4fedf0aaa04ULL, 0x1f47003a6d636305ULL};
    expectFleetDigests(fleet.run(1), want, "mixed fleet, 1 thread");
    expectFleetDigests(fleet.run(3), want, "mixed fleet, 3 threads");
}

TEST(GoldenDigest, RecordThenReplayFleet)
{
    const std::string path = cacheDir() + "/golden.trc";
    FleetSpec spec = fleetSpec(3, 8);
    spec.sessions[1].faults =
        sim::FaultPlan::parse("msr=0.3,sensor_drop=0.2,jitter=0.3");
    spec.record_path = path;
    const std::array<std::uint64_t, 3> want = {0xdb25727192cbd3eaULL,
                                               0x1a5bba2f4655d7daULL,
                                               0x9e1be4fedf0aaa04ULL};
    Fleet recorder(spec);
    expectFleetDigests(recorder.run(2), want, "recording fleet");

    spec.record_path.clear();
    spec.replay_path = path;
    Fleet replayer(std::move(spec));
    expectFleetDigests(replayer.run(2), want, "replayed fleet");
}

TEST(GoldenDigest, ArbitratedFleetWithBudgetDrop)
{
    FleetSpec spec = mixedSpec(10);
    // PPEP capping needs the power-gating idle decomposition the
    // Phenom II does not train; its sessions keep the EDP default.
    for (std::size_t i : {0, 2})
        spec.sessions[i].governor = runtime::cappingGovernor();
    spec.sessions[2].faults =
        sim::FaultPlan::parse("msr=0.1,sensor_drop=0.05");
    spec.sessions[0].one_per_cu.clear();
    spec.sessions[0].tenants = {
        {"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
        {"beta", {4, 5, 6, 7}, {{4, "CG", true}}},
    };
    spec.sessions[1].priority = 2.0;
    runtime::ArbiterSpec arbiter;
    arbiter.budget = CapSchedule({{0, 150.0}, {5, 100.0}});
    spec.arbiter = std::move(arbiter);
    Fleet fleet(std::move(spec));
    const std::array<std::uint64_t, 4> want = {
        0x1b2b2e5831f21e84ULL, 0x40fab556f4b1441aULL,
        0x06c19bfcca5b6a96ULL, 0x0a3395572a2ca79dULL};
    const FleetResult serial = fleet.run(1);
    expectFleetDigests(serial, want, "arbitrated fleet, 1 thread");
    // The budget must bind, or the arbiter never moved a cap.
    double throttled_w = 0.0;
    for (const auto &s : serial.sessions)
        throttled_w += s.mean_throttled_w;
    EXPECT_GT(throttled_w, 0.0);
    expectFleetDigests(fleet.run(2), want, "arbitrated fleet, 2 threads");
}

/** FNV-1a over every word of the counter path's output. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

/**
 * Digest of 40 hardened-sampler intervals on a chip whose counters
 * wrap, saturate and miss harvests: every extrapolated PMC double, the
 * cumulative fault tally and the chip's wrap count, each interval.
 * No model is trained; only the counter path and the Sampler run.
 */
std::uint64_t
counterFaultDigest(const sim::ChipConfig &cfg, const std::string &faults)
{
    sim::Chip chip(cfg, 13);
    workloads::launch(chip, workloads::replicate("dedup", 3), true);
    chip.setFaultPlan(sim::FaultPlan::parse(faults), 17);
    runtime::Sampler sampler(chip);
    trace::IntervalRecord rec;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 40; ++i) {
        sampler.collectIntervalInto(rec);
        for (const auto &core : rec.pmc)
            for (double v : core)
                fnvMix(h, std::bit_cast<std::uint64_t>(v));
        fnvMix(h, sampler.lastHealth().total_fault_events);
        fnvMix(h, chip.pmcWrapEvents());
    }
    // Every counter fault must have fired, or the digest pins less
    // than it claims to.
    const auto &fired = chip.faultInjector()->counters();
    EXPECT_GT(chip.pmcWrapEvents(), 0u);
    EXPECT_GT(fired.pmc_slot_saturations, 0u);
    EXPECT_GT(fired.mux_dropped_ticks, 0u);
    return h;
}

TEST(GoldenDigest, CounterFaultsAcrossSlotWidths)
{
    const std::array<std::string, 2> plans = {
        "wrap=20,saturate=0.02,mux=0.1",
        "wrap=16,saturate=0.05,mux=0.3,msr=0.2"};
    std::vector<std::pair<std::string, sim::ChipConfig>> chips;
    for (std::size_t slots : {5u, 6u, 12u}) {
        sim::ChipConfig cfg = sim::fx8320Config();
        cfg.pmc_counters = slots;
        chips.emplace_back("FX-8320, " + std::to_string(slots) + " slots",
                           cfg);
    }
    chips.emplace_back("Phenom II", sim::phenomIIConfig());
    const std::array<std::uint64_t, 8> want = {
        0xce148fcff073ade3ULL, 0x83b1326a5b59be5fULL,
        0x1480726319facaefULL, 0x840861038ba19f77ULL,
        0x045284c76d917222ULL, 0x84a843aaaee6cb65ULL,
        0x158eae16d8127524ULL, 0x84159d3381ddd217ULL};
    std::size_t k = 0;
    for (const auto &plan : plans)
        for (const auto &[name, cfg] : chips)
            expectDigest(counterFaultDigest(cfg, plan), want[k++],
                         name + " under " + plan);
}

/** The tight policy of the Recalibrate.* tests: a small ring and a
 *  quick cooldown, so a few hundred drifting intervals trigger, adopt
 *  and reject several refits. */
runtime::RecalibrationPolicy
tightRecalPolicy()
{
    runtime::RecalibrationPolicy p;
    p.recal_divergence_w = 6.0;
    p.ring_capacity = 64;
    p.min_ring_fill = 32;
    p.cooldown_intervals = 16;
    p.min_improvement = 0.05;
    return p;
}

sim::FaultPlan
sensorDrift()
{
    sim::FaultPlan plan;
    plan.power_drift_bias = 5e-4;
    plan.drift_clamp = 0.4;
    return plan;
}

/** FNV-1a over every field of a refit lineage, the MAEs by their bits. */
std::uint64_t
lineageDigest(const std::vector<runtime::RefitRecord> &lineage)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &r : lineage) {
        fnvMix(h, r.generation);
        fnvMix(h, r.parent_digest);
        fnvMix(h, r.digest);
        fnvMix(h, r.accepted ? 1u : 0u);
        for (const char *c = r.verdict; *c != '\0'; ++c)
            fnvMix(h, static_cast<unsigned char>(*c));
        fnvMix(h, r.trigger_interval);
        fnvMix(h, std::bit_cast<std::uint64_t>(r.trigger_ewma_w));
        fnvMix(h, std::bit_cast<std::uint64_t>(r.cv_mae_w));
        fnvMix(h, std::bit_cast<std::uint64_t>(r.incumbent_mae_w));
        fnvMix(h, r.ring_rows);
    }
    return h;
}

TEST(GoldenDigest, RecalibratingSessionRefitsAndAdopts)
{
    DigestSink digest;
    auto session = Session::builder(sim::fx8320Config())
                       .seed(1)
                       .trainingSeed(91)
                       .models(fxModels())
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(sensorDrift())
                       .recalibration(tightRecalPolicy())
                       .sink(digest)
                       .build();
    ASSERT_EQ(session.drive(300), 300u);
    const runtime::Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    // Both verdict paths must run, or the digests pin less than they
    // claim to.
    EXPECT_GE(rc->accepted(), 2u);
    EXPECT_GE(rc->rejected(), 1u);
    expectDigest(digest.digest(), 0xa792d05c033bf4cdULL,
                 "recalibrating session");
    expectDigest(lineageDigest(rc->lineage()), 0xaf00b970ec0653d2ULL,
                 "recalibrating session lineage");
}

TEST(GoldenDigest, RecalibratingArbitratedFleetAtOneAndThreeThreads)
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    FleetSpec spec = fleetSpec(3, 300);
    spec.default_recalibration = tightRecalPolicy();
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
        spec.sessions[i].faults = sensorDrift();
        spec.sessions[i].one_per_cu = {programs[i], "EP", "CG", "EP"};
    }
    runtime::ArbiterSpec arbiter;
    arbiter.budget = CapSchedule({{0, 330.0}, {150, 240.0}});
    spec.arbiter = std::move(arbiter);
    Fleet fleet(std::move(spec));
    const std::array<std::uint64_t, 3> want = {0x2653f8299228ad6fULL,
                                               0x823983f15f8dfb5fULL,
                                               0x3cfa12b12d685518ULL};
    const FleetResult serial = fleet.run(1);
    expectFleetDigests(serial, want,
                       "recalibrating arbitrated fleet, 1 thread");
    // Every session must adopt a refit and the budget must bind, or the
    // digests pin less than they claim to.
    double throttled_w = 0.0;
    for (const auto &s : serial.sessions) {
        EXPECT_GE(s.summary.recal_accepted, 1u);
        throttled_w += s.mean_throttled_w;
    }
    EXPECT_GT(throttled_w, 0.0);
    expectFleetDigests(fleet.run(3), want,
                       "recalibrating arbitrated fleet, 3 threads");
}

} // namespace
