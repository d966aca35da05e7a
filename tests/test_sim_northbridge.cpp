/**
 * @file
 * Unit tests for the shared NB latency/contention model.
 */

#include <gtest/gtest.h>

#include "ppep/sim/northbridge.hpp"
#include "sized_results.hpp"

namespace {

using namespace ppep::sim;

ChipConfig
cfg()
{
    auto c = fx8320Config();
    c.rate_jitter_sd = 0.0;
    return c;
}

CoreDemand
memDemand(const ChipConfig &c, double f_ghz, double intensity = 1.0)
{
    Phase p;
    p.l2req_per_inst = 0.05 * intensity;
    p.l2miss_per_inst = 0.025 * intensity;
    p.leading_per_inst = 0.007 * intensity;
    p.l3_miss_rate = 0.8;
    ppep::util::Rng rng(1);
    return {CoreModel::effectiveRates(c, p, f_ghz, rng), f_ghz};
}

TEST(NorthBridge, L3LatencyScalesWithNbFrequency)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const double hi = nb.l3LatencyNs();
    nb.setVf(c.nb.vf_lo);
    const double lo = nb.l3LatencyNs();
    EXPECT_NEAR(lo / hi, 2.0, 1e-9); // half frequency, double latency
}

TEST(NorthBridge, DramLatencyHasFixedComponent)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const double hi = nb.dramLatencyNs();
    nb.setVf(c.nb.vf_lo);
    const double lo = nb.dramLatencyNs();
    // Only the MC part scales, so lo < 2 * hi.
    EXPECT_GT(lo, hi);
    EXPECT_LT(lo, 2.0 * hi);
    EXPECT_NEAR(lo - hi, c.nb.mc_latency_cycles / c.nb.vf_lo.freq_ghz -
                             c.nb.mc_latency_cycles / c.nb.vf_hi.freq_ghz,
                1e-9);
}

TEST(NorthBridge, CoreLatencyBlendsL3AndDram)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const double pure_l3 = nb.coreLatencyNs(0.0, 1.0);
    const double pure_dram = nb.coreLatencyNs(1.0, 1.0);
    const double half = nb.coreLatencyNs(0.5, 1.0);
    EXPECT_DOUBLE_EQ(pure_l3, nb.l3LatencyNs());
    EXPECT_DOUBLE_EQ(pure_dram, nb.dramLatencyNs());
    EXPECT_NEAR(half, 0.5 * (pure_l3 + pure_dram), 1e-12);
}

TEST(NorthBridge, EmptyResolutionIsIdle)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const auto res = ppep::test::resolveNb(nb, {});
    EXPECT_TRUE(res.mem_lat_ns.empty());
    EXPECT_DOUBLE_EQ(res.utilization, 0.0);
    EXPECT_DOUBLE_EQ(res.queue_factor, 1.0);
}

TEST(NorthBridge, SingleCoreLowUtilization)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const auto res = ppep::test::resolveNb(nb, {memDemand(c, 3.5)});
    ASSERT_EQ(res.mem_lat_ns.size(), 1u);
    EXPECT_LT(res.utilization, 0.35);
    EXPECT_GT(res.queue_factor, 1.0);
    EXPECT_LT(res.queue_factor, 1.6);
}

TEST(NorthBridge, ContentionRaisesLatency)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const auto solo = ppep::test::resolveNb(nb, {memDemand(c, 3.5)});
    std::vector<CoreDemand> eight(8, memDemand(c, 3.5));
    const auto crowd = ppep::test::resolveNb(nb, eight);
    EXPECT_GT(crowd.mem_lat_ns[0], solo.mem_lat_ns[0]);
    EXPECT_GT(crowd.utilization, solo.utilization);
}

TEST(NorthBridge, UtilizationCapped)
{
    const auto c = cfg();
    NorthBridge nb(c);
    // Absurd demand cannot exceed the configured cap.
    std::vector<CoreDemand> storm(8, memDemand(c, 3.5, 8.0));
    const auto res = ppep::test::resolveNb(nb, storm);
    EXPECT_LE(res.utilization, c.nb.max_utilization + 1e-9);
    EXPECT_GE(res.queue_factor, 1.0);
}

TEST(NorthBridge, LowerCoreFrequencyLowersPressure)
{
    const auto c = cfg();
    NorthBridge nb(c);
    std::vector<CoreDemand> fast(4, memDemand(c, 3.5));
    std::vector<CoreDemand> slow(4, memDemand(c, 1.4));
    EXPECT_GT(ppep::test::resolveNb(nb, fast).utilization,
              ppep::test::resolveNb(nb, slow).utilization);
}

TEST(NorthBridge, FixedPointSelfConsistent)
{
    // Re-evaluating the demand at the resolved latency must reproduce
    // the resolved utilisation (the definition of a fixed point).
    const auto c = cfg();
    NorthBridge nb(c);
    std::vector<CoreDemand> demands(6, memDemand(c, 2.9));
    const auto res = ppep::test::resolveNb(nb, demands);
    double bytes = 0.0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const double ips = CoreModel::instRate(
            demands[i].rates, demands[i].f_ghz, res.mem_lat_ns[i]);
        bytes += ips * demands[i].rates.dram_per_inst * c.nb.line_bytes;
    }
    const double rho = std::min(bytes / (c.nb.dram_bw_gbs * 1e9),
                                c.nb.max_utilization);
    EXPECT_NEAR(rho, res.utilization, 1e-12);
    EXPECT_NEAR(res.queue_factor, 1.0 / (1.0 - rho), 1e-12);
}

TEST(NorthBridge, StormClampsAtMaxUtilization)
{
    // Eight streaming storms (many DRAM misses, few of them leading
    // loads) demand more than the queueing cap allows even at the cap's
    // latency, so the cap itself is the answer.
    const auto c = cfg();
    NorthBridge nb(c);
    Phase p;
    p.l2req_per_inst = 0.4;
    p.l2miss_per_inst = 0.2;
    p.leading_per_inst = 0.002;
    p.l3_miss_rate = 1.0;
    ppep::util::Rng rng(1);
    const CoreDemand d{CoreModel::effectiveRates(c, p, 3.5, rng), 3.5};
    std::vector<CoreDemand> storm(8, d);
    const auto res = ppep::test::resolveNb(nb, storm);
    EXPECT_EQ(res.utilization, c.nb.max_utilization);
    EXPECT_EQ(res.queue_factor, 1.0 / (1.0 - c.nb.max_utilization));
    // Latencies are priced at the cap.
    const double u = c.nb.max_utilization;
    const double miss =
        storm[0].rates.dram_per_inst / storm[0].rates.l3_per_inst;
    const double lat = nb.coreLatencyNs(miss, 1.0 / (1.0 - u)) *
                       (1.0 + c.nb.mlp_collapse * u * u);
    for (double l : res.mem_lat_ns)
        EXPECT_DOUBLE_EQ(l, lat);
}

TEST(NorthBridge, NbLowFrequencyRaisesLatencyUnderLoad)
{
    const auto c = cfg();
    NorthBridge nb(c);
    std::vector<CoreDemand> demands(4, memDemand(c, 3.5));
    const auto hi = ppep::test::resolveNb(nb, demands);
    nb.setVf(c.nb.vf_lo);
    const auto lo = ppep::test::resolveNb(nb, demands);
    EXPECT_GT(lo.mem_lat_ns[0], hi.mem_lat_ns[0]);
}

TEST(NorthBridgeDeath, RejectsBadVf)
{
    const auto c = cfg();
    NorthBridge nb(c);
    EXPECT_DEATH(nb.setVf({0.0, 2.2}), "bad NB VF");
}

// The NB solve's uniqueness argument needs DRAM demand that never rises
// with utilisation; validate() refuses the inputs that would break it.
TEST(NorthBridgeDeath, RejectsNegativeMlpCollapse)
{
    auto c = cfg();
    c.nb.mlp_collapse = -0.5;
    EXPECT_DEATH(c.validate(), "negative MLP collapse");
}

TEST(NorthBridgeDeath, RejectsNonPositiveLineBytes)
{
    auto c = cfg();
    c.nb.line_bytes = 0.0;
    EXPECT_DEATH(c.validate(), "cache line size must be positive");
    c.nb.line_bytes = -64.0;
    EXPECT_DEATH(c.validate(), "cache line size must be positive");
}

TEST(NorthBridgeDeath, RejectsNegativeL3Latency)
{
    auto c = cfg();
    c.nb.l3_latency_cycles = -1.0;
    EXPECT_DEATH(c.validate(), "negative NB latency");
}

TEST(NorthBridgeDeath, RejectsNegativeMcLatency)
{
    auto c = cfg();
    c.nb.mc_latency_cycles = -1.0;
    EXPECT_DEATH(c.validate(), "negative NB latency");
}

TEST(NorthBridgeDeath, RejectsNegativeDramFixedLatency)
{
    auto c = cfg();
    c.nb.dram_fixed_ns = -1.0;
    EXPECT_DEATH(c.validate(), "negative NB latency");
}

// Property sweep: latency is monotone non-decreasing in the number of
// identical memory-bound co-runners.
class CrowdSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CrowdSweep, MonotoneLatency)
{
    const auto c = cfg();
    NorthBridge nb(c);
    const std::size_t n = GetParam();
    std::vector<CoreDemand> fewer(n, memDemand(c, 3.5));
    std::vector<CoreDemand> more(n + 1, memDemand(c, 3.5));
    EXPECT_LE(ppep::test::resolveNb(nb, fewer).mem_lat_ns[0],
              ppep::test::resolveNb(nb, more).mem_lat_ns[0] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, CrowdSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 7u));

} // namespace
