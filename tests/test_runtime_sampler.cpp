/**
 * @file
 * Tests for the hardened interval acquisition path (runtime::Sampler):
 * bit-identity with trace::Collector on clean hardware, per-sample
 * sensor/diode guards, bounded PMC retry with window normalisation,
 * plausibility rejection of corrupted counter sets, and last-good
 * substitution under the staleness budget.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/runtime/sampler.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;
using runtime::Sampler;
using sim::FaultPlan;

constexpr std::uint64_t kSeed = 7;

void
makeBusy(sim::Chip &chip)
{
    workloads::launch(chip, workloads::replicate("EP", 4), true);
}

// --- bit-identity on clean hardware -------------------------------------

TEST(Sampler, CleanChipMatchesCollectorBitForBit)
{
    // The hardened path must cost nothing in fidelity: on a faultless
    // chip every field of its records equals the Collector's exactly,
    // down to the floating-point bit pattern.
    sim::Chip a(sim::fx8320Config(), kSeed);
    sim::Chip b(sim::fx8320Config(), kSeed);
    makeBusy(a);
    makeBusy(b);
    trace::Collector col(a);
    Sampler sampler(b);

    for (int i = 0; i < 8; ++i) {
        const auto ra = col.collectInterval();
        const auto rb = sampler.collectInterval();
        EXPECT_EQ(ra.duration_s, rb.duration_s);
        EXPECT_EQ(ra.sensor_power_w, rb.sensor_power_w);
        EXPECT_EQ(ra.diode_temp_k, rb.diode_temp_k);
        EXPECT_EQ(ra.true_power_w, rb.true_power_w);
        EXPECT_EQ(ra.true_dynamic_w, rb.true_dynamic_w);
        EXPECT_EQ(ra.true_idle_w, rb.true_idle_w);
        EXPECT_EQ(ra.true_nb_power_w, rb.true_nb_power_w);
        EXPECT_EQ(ra.true_temp_k, rb.true_temp_k);
        EXPECT_EQ(ra.nb_utilization, rb.nb_utilization);
        EXPECT_EQ(ra.busy_cores, rb.busy_cores);
        EXPECT_EQ(ra.cu_vf, rb.cu_vf);
        ASSERT_EQ(ra.pmc.size(), rb.pmc.size());
        for (std::size_t c = 0; c < ra.pmc.size(); ++c)
            for (std::size_t e = 0; e < sim::kNumEvents; ++e) {
                EXPECT_EQ(ra.pmc[c][e], rb.pmc[c][e]);
                EXPECT_EQ(ra.oracle[c][e], rb.oracle[c][e]);
            }
        EXPECT_EQ(sampler.lastHealth().faultEvents(), 0u);
    }
    EXPECT_EQ(sampler.lastHealth().total_fault_events, 0u);
}

// --- sensor / diode guards ----------------------------------------------

TEST(Sampler, SensorDropoutsAreRejectedNotAveraged)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    chip.setFaultPlan(FaultPlan::parse("sensor_drop=0.4"), 11);
    Sampler sampler(chip);
    bool saw_reject = false;
    for (int i = 0; i < 10; ++i) {
        const auto rec = sampler.collectInterval();
        EXPECT_TRUE(std::isfinite(rec.sensor_power_w));
        EXPECT_GE(rec.sensor_power_w, 0.0);
        saw_reject |= sampler.lastHealth().sensor_rejects > 0;
    }
    EXPECT_TRUE(saw_reject);
}

TEST(Sampler, FullyDroppedSensorSubstitutesLastGoodInterval)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    Sampler sampler(chip);
    const auto clean = sampler.collectInterval(); // primes last-good

    chip.setFaultPlan(FaultPlan::parse("sensor_drop=1"), 11);
    const auto faulted = sampler.collectInterval();
    EXPECT_EQ(sampler.lastHealth().sensor_rejects,
              sampler.lastHealth().ticks);
    EXPECT_EQ(faulted.sensor_power_w, clean.sensor_power_w);
}

TEST(Sampler, DiodeSpikesOutsideWindowAreRejected)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    // 300 K spikes throw the reading far outside [min_temp, max_temp].
    chip.setFaultPlan(
        FaultPlan::parse("diode_spike=0.5,diode_spike_k=300"), 11);
    Sampler sampler(chip);
    bool saw_reject = false;
    for (int i = 0; i < 10; ++i) {
        const auto rec = sampler.collectInterval();
        EXPECT_GE(rec.diode_temp_k, Sampler::kMinTempK);
        EXPECT_LE(rec.diode_temp_k, Sampler::kMaxTempK);
        saw_reject |= sampler.lastHealth().diode_rejects > 0;
    }
    EXPECT_TRUE(saw_reject);
}

// --- PMC retry, rejection, substitution ---------------------------------

TEST(Sampler, PersistentMsrFailureRetriesThenSubstitutes)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    Sampler sampler(chip);
    const std::size_t n_cores = chip.config().coreCount();
    const auto clean = sampler.collectInterval(); // primes last-good

    chip.setFaultPlan(FaultPlan::parse("msr=1"), 11);
    const auto rec = sampler.collectInterval();
    const auto &h = sampler.lastHealth();
    // Every core exhausted its retries + 1 attempts.
    EXPECT_EQ(h.msr_retries,
              n_cores * (Sampler::kMaxReadRetries + 1));
    EXPECT_EQ(h.msr_failed_cores, n_cores);
    EXPECT_EQ(h.substituted_cores, n_cores);
    EXPECT_EQ(h.zeroed_cores, 0u);
    for (std::size_t c = 0; c < n_cores; ++c)
        for (std::size_t e = 0; e < sim::kNumEvents; ++e)
            EXPECT_EQ(rec.pmc[c][e], clean.pmc[c][e]);
}

TEST(Sampler, StalenessBudgetExhaustionZeroesTheCore)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    Sampler sampler(chip);
    const std::size_t n_cores = chip.config().coreCount();
    sampler.collectInterval(); // primes last-good

    chip.setFaultPlan(FaultPlan::parse("msr=1"), 11);
    const std::size_t budget = Sampler::kStalenessBudget;
    for (std::size_t i = 0; i < budget; ++i) {
        sampler.collectInterval();
        EXPECT_EQ(sampler.lastHealth().substituted_cores, n_cores)
            << "interval " << i;
        EXPECT_EQ(sampler.lastHealth().zeroed_cores, 0u);
    }
    // Budget spent: the defined sentinel is all-zero counts, never a
    // stale lie older than the budget.
    const auto rec = sampler.collectInterval();
    EXPECT_EQ(sampler.lastHealth().zeroed_cores, n_cores);
    EXPECT_EQ(sampler.lastHealth().substituted_cores, 0u);
    for (std::size_t c = 0; c < n_cores; ++c)
        for (std::size_t e = 0; e < sim::kNumEvents; ++e)
            EXPECT_EQ(rec.pmc[c][e], 0.0);
}

TEST(Sampler, LateReadNormalisesTheLongWindow)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    Sampler sampler(chip);
    const auto clean = sampler.collectInterval();

    // One interval of total read failure leaves the multiplexer
    // accumulating...
    chip.setFaultPlan(FaultPlan::parse("msr=1"), 11);
    sampler.collectInterval();
    ASSERT_GT(sampler.lastHealth().msr_failed_cores, 0u);

    // ...so the next successful read covers a two-interval window and
    // must be scaled back to one interval's worth of counts.
    chip.setFaultPlan(FaultPlan{}, 11);
    const auto rec = sampler.collectInterval();
    EXPECT_EQ(sampler.lastHealth().pmc_rejected_cores, 0u);
    EXPECT_EQ(sampler.lastHealth().substituted_cores, 0u);
    const auto cyc = sim::eventIndex(sim::Event::ClocksNotHalted);
    std::size_t busy_checked = 0;
    for (std::size_t c = 0; c < rec.pmc.size(); ++c) {
        if (clean.pmc[c][cyc] == 0.0)
            continue; // core idle in the clean interval too
        ++busy_checked;
        // Within 2x of a clean interval (the even-rate assumption is
        // approximate), not the ~2x inflation an unscaled window shows.
        EXPECT_GT(rec.pmc[c][cyc], 0.25 * clean.pmc[c][cyc]);
        EXPECT_LT(rec.pmc[c][cyc], 1.6 * clean.pmc[c][cyc]);
    }
    EXPECT_GT(busy_checked, 0u);
}

TEST(Sampler, SaturatedCountersAreRejectedAsImplausible)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    // Full-scale 48-bit saturation every core-tick: the harvested
    // deltas are ~2.8e14, far beyond any physical event rate.
    chip.setFaultPlan(FaultPlan::parse("wrap=48,saturate=1"), 11);
    Sampler sampler(chip);
    const auto rec = sampler.collectInterval();
    const auto &h = sampler.lastHealth();
    const std::size_t n_cores = chip.config().coreCount();
    EXPECT_EQ(h.pmc_rejected_cores, n_cores);
    EXPECT_EQ(h.substituted_cores, n_cores);
    // The corrupt counts never reach the record.
    const double ceiling = 1e12;
    for (const auto &counts : rec.pmc)
        for (double v : counts)
            EXPECT_LT(v, ceiling);
}

// --- interval timing -----------------------------------------------------

TEST(Sampler, JitteredIntervalsReportTrueDuration)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    chip.setFaultPlan(FaultPlan::parse("jitter=1,jitter_max=2"), 11);
    Sampler sampler(chip);
    const auto &cfg = chip.config();
    bool saw_jitter = false;
    for (int i = 0; i < 20; ++i) {
        const auto rec = sampler.collectInterval();
        const auto &h = sampler.lastHealth();
        // Rate math downstream depends on duration matching the ticks
        // that actually ran.
        EXPECT_EQ(rec.duration_s,
                  cfg.tick_s * static_cast<double>(h.ticks));
        if (h.ticks != cfg.ticks_per_interval) {
            EXPECT_TRUE(h.timing_overrun);
            saw_jitter = true;
        }
    }
    EXPECT_TRUE(saw_jitter);
}

// --- cumulative accounting ----------------------------------------------

TEST(Sampler, CumulativeTalliesCarryAcrossIntervals)
{
    sim::Chip chip(sim::fx8320Config(), kSeed);
    makeBusy(chip);
    chip.setFaultPlan(FaultPlan::parse("sensor_drop=0.3,msr=0.2"), 11);
    Sampler sampler(chip);
    std::size_t running = 0, last_total = 0;
    for (int i = 0; i < 15; ++i) {
        sampler.collectInterval();
        const auto &h = sampler.lastHealth();
        EXPECT_EQ(h.total_fault_events, running);
        running += h.faultEvents();
        EXPECT_GE(h.injected.total(), last_total);
        last_total = h.injected.total();
    }
    EXPECT_GT(running, 0u);
    EXPECT_GT(last_total, 0u);
}

} // namespace
