/**
 * @file
 * Tests for the worker pool (util/parallel.hpp): every index runs
 * exactly once at any worker count, results land in their own slots,
 * and a throwing job surfaces on the caller after the join, the lowest
 * index first.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ppep/util/parallel.hpp"

namespace {

using ppep::util::parallelFor;
using ppep::util::runWorkers;

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
        for (const std::size_t n : {0u, 1u, 2u, 5u, 64u}) {
            std::vector<std::atomic<int>> runs(n);
            parallelFor(n, workers, [&](std::size_t i) { ++runs[i]; });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "index " << i << " of " << n << " on " << workers
                    << " workers";
        }
    }
}

TEST(ParallelFor, ResultsLandInTheirOwnSlots)
{
    for (const std::size_t workers : {1u, 3u, 8u}) {
        const auto out = parallelFor(
            100, workers, [](std::size_t i) { return i * i; });
        ASSERT_EQ(out.size(), 100u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
    EXPECT_TRUE(parallelFor(0, 4, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelFor, ZeroWorkersClampsToOneOnTheCaller)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(4);
    parallelFor(4, 0, [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
    });
    for (const auto &id : ran_on)
        EXPECT_EQ(id, caller);
}

TEST(ParallelFor, ThrowIsRethrownAfterEveryJobRan)
{
    for (const std::size_t workers : {1u, 2u, 8u}) {
        std::atomic<int> ran{0};
        try {
            parallelFor(16, workers, [&](std::size_t i) {
                ++ran;
                if (i == 5)
                    throw std::runtime_error("job 5");
            });
            ADD_FAILURE() << "no exception on " << workers << " workers";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "job 5");
        }
        // The caller sees the error only after the join, so every
        // other job has run to completion.
        EXPECT_EQ(ran.load(), 16) << workers << " workers";
    }
}

TEST(ParallelFor, LowestThrowingIndexWins)
{
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
        for (int round = 0; round < 20; ++round) {
            try {
                parallelFor(12, workers, [&](std::size_t i) {
                    if (i == 3 || i == 7 || i == 11)
                        throw std::runtime_error("job " +
                                                 std::to_string(i));
                });
                ADD_FAILURE() << "no exception";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()), "job 3")
                    << workers << " workers";
            }
        }
    }
}

TEST(RunWorkers, EveryWorkerRunsOnce)
{
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
        std::vector<std::atomic<int>> runs(workers);
        runWorkers(workers, [&](std::size_t w) { ++runs[w]; });
        for (std::size_t w = 0; w < workers; ++w)
            EXPECT_EQ(runs[w].load(), 1);
    }
}

} // namespace
