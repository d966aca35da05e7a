/**
 * @file
 * Fleet runtime tests: the determinism contract (per-session telemetry
 * bit-identical at any thread count), shared-model correctness, fault
 * isolation between sessions, and pool survival when a session throws.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "ppep/model/ppep.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

#include "temp_path.hpp"

namespace {

using namespace ppep;
using runtime::Fleet;
using runtime::FleetSessionSpec;
using runtime::FleetSpec;
using runtime::Session;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

/** One cache dir per test process: the first fleet trains, every
 *  later one in the same process loads the same bytes, keeping the
 *  tests fast. Keyed by pid because ctest runs each TEST as its own
 *  process, concurrently — a shared dir would let one process
 *  remove_all entries a sibling is mid-publish on. */
const std::string &
cacheDir()
{
    static const std::string dir = [] {
        const std::string d = test::tempPath("fleet_cache");
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
}

FleetSpec
baseSpec(std::size_t n_sessions)
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.store.emplace(cacheDir());
    spec.warmup = 1;
    spec.intervals = 6;
    for (std::size_t i = 0; i < n_sessions; ++i) {
        FleetSessionSpec ss;
        ss.seed = 7 + i;
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = {programs[i % programs.size()]};
        spec.sessions.push_back(std::move(ss));
    }
    return spec;
}

TEST(Fleet, BitIdenticalAcrossThreadCounts)
{
    Fleet fleet(baseSpec(5));
    const auto serial = fleet.run(1);
    ASSERT_EQ(serial.failed, 0u);
    ASSERT_EQ(serial.completed, 5u);

    // Sessions must also differ from each other (distinct seeds and
    // workloads), or digest equality below would be vacuous.
    for (std::size_t i = 1; i < serial.sessions.size(); ++i)
        EXPECT_NE(serial.sessions[i].telemetry_digest,
                  serial.sessions[0].telemetry_digest);

    for (const std::size_t threads : {2, 8}) {
        const auto parallel = fleet.run(threads);
        ASSERT_EQ(parallel.failed, 0u) << threads << " threads";
        for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
            EXPECT_EQ(parallel.sessions[i].telemetry_digest,
                      serial.sessions[i].telemetry_digest)
                << "session " << i << " at " << threads << " threads";
            EXPECT_EQ(parallel.sessions[i].name,
                      serial.sessions[i].name);
        }
    }
}

TEST(Fleet, SharedModelsMatchOwnedModels)
{
    const auto spec = baseSpec(1);
    Fleet fleet(spec);
    fleet.prepare();
    // Both accessors hand out const references: a session can only
    // read the shared state.
    const model::TrainedModels &models = fleet.models();
    const model::Ppep &ppep = fleet.ppep();

    runtime::DigestSink shared_digest;
    auto shared = Session::builder(spec.cfg)
                      .seed(7)
                      .onePerCu({"EP"})
                      .sharedModels(models, ppep)
                      .sink(shared_digest)
                      .build();
    EXPECT_EQ(shared.drive(6), 6u);

    runtime::DigestSink owned_digest;
    auto owned = Session::builder(spec.cfg)
                     .seed(7)
                     .onePerCu({"EP"})
                     .models(models)
                     .sink(owned_digest)
                     .build();
    EXPECT_EQ(owned.drive(6), 6u);

    EXPECT_EQ(shared_digest.intervals(), 6u);
    EXPECT_EQ(shared_digest.digest(), owned_digest.digest());
}

TEST(Fleet, PerSessionFaultPlansAreIsolated)
{
    Fleet clean(baseSpec(3));
    const auto base = clean.run(2);
    ASSERT_EQ(base.failed, 0u);

    auto spec = baseSpec(3);
    spec.sessions[1].faults = sim::FaultPlan::parse(
        "msr=0.3,sensor_drop=0.2,diode_spike=0.1,jitter=0.3");
    Fleet faulty(std::move(spec));
    const auto mixed = faulty.run(2);
    ASSERT_EQ(mixed.failed, 0u);

    // The faulted session's telemetry changes; its neighbours replay
    // the clean fleet bit for bit.
    EXPECT_NE(mixed.sessions[1].telemetry_digest,
              base.sessions[1].telemetry_digest);
    EXPECT_EQ(mixed.sessions[0].telemetry_digest,
              base.sessions[0].telemetry_digest);
    EXPECT_EQ(mixed.sessions[2].telemetry_digest,
              base.sessions[2].telemetry_digest);
}

TEST(Fleet, ThrowingSessionDoesNotSinkThePool)
{
    // Free-running and arbitrated lockstep alike: the throwing session
    // is recorded as failed, and the others run every interval with
    // the same digests at any worker count.
    for (const bool arbitrated : {false, true}) {
        SCOPED_TRACE(arbitrated ? "arbitrated" : "free-running");
        auto spec = baseSpec(4);
        spec.sessions[2].governor = [](const runtime::ModelContext &)
            -> std::unique_ptr<ppep::governor::Governor> {
            class Throwing : public ppep::governor::Governor
            {
              public:
                std::vector<std::size_t>
                decide(const trace::IntervalRecord &, double) override
                {
                    throw std::runtime_error(
                        "injected governor failure");
                }
                std::string name() const override { return "throwing"; }
            };
            return std::make_unique<Throwing>();
        };
        if (arbitrated) {
            runtime::ArbiterSpec a;
            a.budget = ppep::governor::CapSchedule(120.0);
            spec.arbiter = std::move(a);
        }

        Fleet fleet(std::move(spec));
        std::vector<std::uint64_t> first_digests;
        for (const std::size_t threads : {1, 2}) {
            const auto res = fleet.run(threads);
            EXPECT_EQ(res.completed, 3u) << threads << " threads";
            EXPECT_EQ(res.failed, 1u) << threads << " threads";
            EXPECT_FALSE(res.sessions[2].completed);
            EXPECT_NE(
                res.sessions[2].error.find("injected governor failure"),
                std::string::npos);
            std::vector<std::uint64_t> digests;
            for (const std::size_t i : {0, 1, 3}) {
                EXPECT_TRUE(res.sessions[i].completed) << "session " << i;
                EXPECT_EQ(res.sessions[i].intervals, 6u);
                digests.push_back(res.sessions[i].telemetry_digest);
            }
            if (first_digests.empty())
                first_digests = digests;
            EXPECT_EQ(digests, first_digests) << threads << " threads";
            EXPECT_EQ(res.arbiter.active, arbitrated);
            EXPECT_EQ(res.arbiter.cap_sum_violations, 0u);
        }
    }
}

/** 5 sessions over 3 distinct platforms, 2 tenants on the first. */
FleetSpec
heteroSpec()
{
    FleetSpec spec = baseSpec(5);
    // Sessions 0-1 stay on the fleet-default FX-8320; 2-3 bring a
    // Phenom II, 4 the NB-DVFS variant. The first FX chip is split
    // between two tenants, whose jobs replace its one_per_cu.
    spec.sessions[2].cfg = sim::phenomIIConfig();
    spec.sessions[3].cfg = sim::phenomIIConfig();
    spec.sessions[4].cfg = sim::fx8320NbDvfsConfig();
    // The Phenom II cannot power-gate; baseSpec's pg alternation only
    // applies to the FX sessions.
    spec.sessions[2].pg = false;
    spec.sessions[3].pg = false;
    spec.sessions[0].one_per_cu.clear();
    spec.sessions[0].tenants = {
        {"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
        {"beta", {4, 5, 6, 7}, {{4, "CG", true}}},
    };
    return spec;
}

TEST(Fleet, HeterogeneousSharesEntriesPerConfig)
{
    Fleet fleet(heteroSpec());
    fleet.prepare();

    // Three distinct platforms -> three registry entries, resolved by
    // fingerprint: fingerprint-identical sessions share one Ppep.
    EXPECT_EQ(fleet.modelEntryCount(), 3u);
    EXPECT_EQ(fleet.entryIndexOf(0), fleet.entryIndexOf(1));
    EXPECT_EQ(fleet.entryIndexOf(2), fleet.entryIndexOf(3));
    EXPECT_NE(fleet.entryIndexOf(0), fleet.entryIndexOf(2));
    EXPECT_NE(fleet.entryIndexOf(0), fleet.entryIndexOf(4));
    EXPECT_NE(fleet.entryIndexOf(2), fleet.entryIndexOf(4));
    EXPECT_EQ(&fleet.ppepOf(0), &fleet.ppepOf(1));
    EXPECT_NE(&fleet.ppepOf(0), &fleet.ppepOf(2));

    // models()/ppep() still address the default-config entry.
    EXPECT_EQ(&fleet.ppep(), &fleet.ppepOf(0));
}

TEST(Fleet, HeterogeneousBitIdenticalAcrossThreadCounts)
{
    Fleet fleet(heteroSpec());
    const auto serial = fleet.run(1);
    ASSERT_EQ(serial.failed, 0u);
    ASSERT_EQ(serial.completed, 5u);

    for (std::size_t i = 1; i < serial.sessions.size(); ++i)
        EXPECT_NE(serial.sessions[i].telemetry_digest,
                  serial.sessions[0].telemetry_digest);

    for (const std::size_t threads : {2, 8}) {
        const auto parallel = fleet.run(threads);
        ASSERT_EQ(parallel.failed, 0u) << threads << " threads";
        for (std::size_t i = 0; i < serial.sessions.size(); ++i)
            EXPECT_EQ(parallel.sessions[i].telemetry_digest,
                      serial.sessions[i].telemetry_digest)
                << "session " << i << " at " << threads << " threads";
    }
}

TEST(Fleet, EachPlatformTrainsOnTheCombinationsItCanHost)
{
    // An 8-instance combination fits the 8-core FX-8320 but not the
    // 6-core Phenom II: each registry entry trains on the requested
    // combinations its own chip can host instead of aborting.
    const workloads::Combination *eight = nullptr;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 8 && eight == nullptr)
            eight = &c;
    ASSERT_NE(eight, nullptr);

    auto spec = baseSpec(2);
    spec.training_combos->push_back(eight);
    spec.store.reset();
    spec.sessions[1].cfg = sim::phenomIIConfig();
    spec.sessions[1].pg = false;
    Fleet fleet(std::move(spec));
    const auto res = fleet.run(2);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.completed, 2u);
    EXPECT_EQ(fleet.modelEntryCount(), 2u);
}

TEST(Fleet, HeterogeneousCsvHeadersMatchEachConfig)
{
    namespace fs = std::filesystem;
    const std::string dir = test::tempPath("fleet_hetero");
    fs::remove_all(dir);

    auto spec = heteroSpec();
    spec.csv_dir = dir;
    Fleet fleet(std::move(spec));
    ASSERT_EQ(fleet.run(2).failed, 0u);

    const auto header = [&](const std::string &name) {
        std::ifstream in(dir + "/" + name + ".csv");
        EXPECT_TRUE(in.is_open()) << name;
        std::string line;
        std::getline(in, line);
        return line;
    };

    // FX-8320: 4 CUs x 2 cores; Phenom II: 6 CUs x 1 core. Each
    // session's columns must come from its own config, and the tenant
    // session alone grows attribution columns.
    const std::string fx_tenants = header("s0");
    EXPECT_NE(fx_tenants.find("cu3_vf"), std::string::npos);
    EXPECT_EQ(fx_tenants.find("cu4_vf"), std::string::npos);
    EXPECT_NE(fx_tenants.find("core7_ips"), std::string::npos);
    EXPECT_NE(fx_tenants.find("tenant_alpha_w"), std::string::npos);
    EXPECT_NE(fx_tenants.find("tenant_beta_w"), std::string::npos);
    EXPECT_NE(fx_tenants.find("unattributed_w"), std::string::npos);

    const std::string fx_plain = header("s1");
    EXPECT_EQ(fx_plain.find("tenant_"), std::string::npos);

    const std::string phenom = header("s2");
    EXPECT_NE(phenom.find("cu5_vf"), std::string::npos);
    EXPECT_NE(phenom.find("core5_ips"), std::string::npos);
    EXPECT_EQ(phenom.find("core6_ips"), std::string::npos);
    EXPECT_EQ(phenom.find("tenant_"), std::string::npos);
}

// A session name keys its `<name>.csv` and its replay stream; names
// that collide there are rejected before anything runs.

TEST(FleetDeathTest, DuplicateSessionNamesAreFatal)
{
    auto spec = baseSpec(3);
    spec.sessions[0].name = "twin";
    spec.sessions[2].name = "twin";
    EXPECT_DEATH(Fleet{spec}, "session name 'twin' is not unique");

    // An explicit name may also collide with a defaulted "s<index>".
    auto defaulted = baseSpec(2);
    defaulted.sessions[0].name = "s1";
    EXPECT_DEATH(Fleet{defaulted}, "session name 's1' is not unique");
}

TEST(FleetDeathTest, OverlongNamesAreFatalWhenRecordingOrReplaying)
{
    const std::string longest(trace::kMaxStreamNameBytes, 'x');
    auto spec = baseSpec(2);
    spec.sessions[0].name = longest + "y";
    // Without a trace the name only labels results and a CSV file.
    Fleet untraced(spec);

    spec.record_path = test::tempPath("fleet_names.trc");
    EXPECT_DEATH(Fleet{spec}, "is longer than the 39 bytes");
    spec.record_path.clear();
    spec.replay_path = test::tempPath("fleet_names.trc");
    EXPECT_DEATH(Fleet{spec}, "is longer than the 39 bytes");

    // A name that fits the stream table is fine.
    spec.sessions[0].name = longest;
    Fleet traced(spec);
}

} // namespace
