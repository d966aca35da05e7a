/**
 * @file
 * Property test of the NB contention solve: NorthBridge::resolve()
 * against the damped fixed-point iteration it replaced
 * (nb_damped_oracle.cpp), over seeded random demand sets of 0-16 busy
 * cores — CPU-bound, memory-bound, zero-L3 and storm phases, both NB VF
 * points, mlp_collapse in {0, 1, 4}, stock and reduced DRAM bandwidth.
 *
 * Where the oracle converged, the solve must match its latencies,
 * utilisation and queue factor to 1e-9 relative. Everywhere, the
 * answer must reproduce itself: re-pricing every core at the returned
 * latencies gives min(rho, max_utilization) within 1e-12 of the
 * returned utilisation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nb_damped_oracle.hpp"
#include "ppep/sim/northbridge.hpp"
#include "ppep/util/rng.hpp"
#include "sized_results.hpp"

namespace {

using namespace ppep::sim;
using ppep::util::Rng;

constexpr std::uint64_t kCases = 3000;

/** One seeded demand set and the platform it runs on. */
struct Draw
{
    ChipConfig cfg;
    bool nb_lo = false;
    std::vector<CoreDemand> demands;
    std::string what;
};

Phase
randomPhase(Rng &rng, std::string &what)
{
    Phase p;
    const double kind = rng.uniform();
    if (kind < 0.25) { // CPU-bound
        p.l2req_per_inst = rng.uniform(0.005, 0.03);
        p.l2miss_per_inst = rng.uniform(0.0, 0.002);
        p.leading_per_inst = p.l2miss_per_inst * rng.uniform(0.1, 0.6);
        p.l3_miss_rate = rng.uniform(0.0, 0.5);
        what += 'c';
    } else if (kind < 0.35) { // no L3 traffic at all
        p.l2miss_per_inst = 0.0;
        p.leading_per_inst = rng.uniform(0.0, 0.001);
        what += 'z';
    } else if (kind < 0.7) { // memory-bound
        p.l2req_per_inst = 0.05;
        p.l2miss_per_inst = rng.uniform(0.01, 0.03);
        p.leading_per_inst = p.l2miss_per_inst * rng.uniform(0.2, 0.4);
        p.l3_miss_rate = rng.uniform(0.5, 1.0);
        what += 'm';
    } else { // a 2-8x streaming storm: many misses, few of them leading
        const double intensity = rng.uniform(2.0, 8.0);
        p.l2req_per_inst = 0.05 * intensity;
        p.l2miss_per_inst = rng.uniform(0.01, 0.03) * intensity;
        p.leading_per_inst = p.l2miss_per_inst * rng.uniform(0.01, 0.4);
        p.l3_miss_rate = rng.uniform(0.5, 1.0);
        what += 's';
    }
    p.resource_stall_cpi = rng.uniform(0.05, 0.6);
    return p;
}

Draw
draw(std::uint64_t seed)
{
    Rng rng(seed);
    Draw d;
    d.cfg = fx8320Config();
    static constexpr double kMlp[] = {0.0, 1.0, 4.0};
    d.cfg.nb.mlp_collapse = kMlp[rng.next() % 3];
    if (rng.uniform() < 0.3)
        d.cfg.nb.dram_bw_gbs /= 4.0;
    d.nb_lo = rng.uniform() < 0.5;
    const std::size_t n = rng.next() % 17;
    d.what = "seed " + std::to_string(seed) + " mlp " +
             std::to_string(d.cfg.nb.mlp_collapse) + " bw " +
             std::to_string(d.cfg.nb.dram_bw_gbs) +
             (d.nb_lo ? " nb_lo " : " nb_hi ") + "phases ";
    const std::size_t n_vf = d.cfg.vf_table.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double f = d.cfg.vf_table.state(rng.next() % n_vf).freq_ghz;
        const Phase p = randomPhase(rng, d.what);
        d.demands.push_back({CoreModel::effectiveRates(d.cfg, p, f, rng), f});
    }
    return d;
}

NorthBridge
northBridge(const Draw &d)
{
    NorthBridge nb(d.cfg);
    if (d.nb_lo)
        nb.setVf(d.cfg.nb.vf_lo);
    return nb;
}

/** min(rho, max_utilization) re-priced at the resolved latencies. */
double
repricedUtilization(const Draw &d, const NbResolution &res)
{
    double bytes = 0.0;
    for (std::size_t i = 0; i < d.demands.size(); ++i) {
        const auto &dem = d.demands[i];
        bytes += CoreModel::instRate(dem.rates, dem.f_ghz,
                                     res.mem_lat_ns[i]) *
                 dem.rates.dram_per_inst * d.cfg.nb.line_bytes;
    }
    return std::min(bytes / (d.cfg.nb.dram_bw_gbs * 1e9),
                    d.cfg.nb.max_utilization);
}

void
expectRel(double got, double want, const std::string &what)
{
    EXPECT_LE(std::fabs(got - want),
              1e-9 * std::max(std::fabs(got), std::fabs(want)))
        << what << ": got " << got << ", oracle " << want;
}

TEST(NbSolver, MatchesDampedOracleWhereItConverged)
{
    std::size_t converged = 0, clamped = 0;
    NbResolution res, ref;
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        const Draw d = draw(seed);
        const NorthBridge nb = northBridge(d);
        res = ppep::test::resolveNb(nb, d.demands);
        if (!ppep::oracle::resolveDamped(d.cfg, nb, d.demands, ref))
            continue;
        ++converged;
        clamped += res.utilization == d.cfg.nb.max_utilization;
        expectRel(res.utilization, ref.utilization, d.what + " utilization");
        expectRel(res.queue_factor, ref.queue_factor, d.what + " queue");
        ASSERT_EQ(res.mem_lat_ns.size(), ref.mem_lat_ns.size()) << d.what;
        for (std::size_t i = 0; i < res.mem_lat_ns.size(); ++i)
            expectRel(res.mem_lat_ns[i], ref.mem_lat_ns[i],
                      d.what + " core " + std::to_string(i));
        if (HasFailure())
            return;
    }
    // The damped iteration fails to settle on about 45 % of these
    // draws (strong contention feedback); the rest must still cover
    // both the cap and the interior.
    EXPECT_GT(converged, kCases / 2);
    EXPECT_GT(clamped, kCases / 50);
}

TEST(NbSolver, SelfConsistentEverywhere)
{
    std::size_t clamped = 0, interior = 0;
    NbResolution res;
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        const Draw d = draw(seed);
        res = ppep::test::resolveNb(northBridge(d), d.demands);
        const double u_max = d.cfg.nb.max_utilization;
        ASSERT_EQ(res.mem_lat_ns.size(), d.demands.size()) << d.what;
        ASSERT_GE(res.utilization, 0.0) << d.what;
        ASSERT_LE(res.utilization, u_max) << d.what;
        EXPECT_EQ(res.queue_factor, 1.0 / (1.0 - res.utilization))
            << d.what;
        EXPECT_LE(std::fabs(repricedUtilization(d, res) - res.utilization),
                  1e-12)
            << d.what;
        clamped += res.utilization == u_max;
        interior += res.utilization > 0.0 && res.utilization < u_max;
        if (HasFailure())
            return;
    }
    // The draws reach both the cap and the interior.
    EXPECT_GT(clamped, kCases / 50);
    EXPECT_GT(interior, kCases / 2);
}

TEST(NbSolver, ConvergesInFewEvaluations)
{
    // Newton from u = 0 needs about 6 passes over the busy cores (at most
    // 7 on these draws); a wrong derivative, or a solve that keeps
    // bisecting, needs several times more.
    std::size_t total = 0, solves = 0;
    int worst = 0;
    NbResolution res;
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        const Draw d = draw(seed);
        res = ppep::test::resolveNb(northBridge(d), d.demands);
        if (d.demands.empty()) {
            EXPECT_EQ(res.evaluations, 0);
            continue;
        }
        EXPECT_GE(res.evaluations, 1) << d.what;
        EXPECT_LE(res.evaluations, 10) << d.what;
        worst = std::max(worst, res.evaluations);
        total += static_cast<std::size_t>(res.evaluations);
        ++solves;
    }
    EXPECT_LE(static_cast<double>(total) / static_cast<double>(solves), 7.0)
        << "worst " << worst;
}

} // namespace
