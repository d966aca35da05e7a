/**
 * @file
 * Unit tests for math::decreasingRoot(), the safeguarded Newton search
 * behind the NB contention solve.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/math/root_find.hpp"
#include "ppep/util/annotations.hpp"

namespace {

using ppep::math::decreasingRoot;

TEST(RootFind, LinearFunctionTakesOneNewtonStep)
{
    const auto root = decreasingRoot(
        [](double x, double &slope) PPEP_NONBLOCKING {
            slope = -2.0;
            return 1.0 - 2.0 * x;
        },
        0.0, 0.9, 1e-15, 64);
    EXPECT_EQ(root.x, 0.5);
    EXPECT_EQ(root.evaluations, 2);
}

TEST(RootFind, ZeroAtLowerEndNeedsOneEvaluation)
{
    const auto root = decreasingRoot(
        [](double x, double &slope) PPEP_NONBLOCKING {
            slope = -1.0;
            return -x;
        },
        0.0, 0.9, 1e-15, 64);
    EXPECT_EQ(root.x, 0.0);
    EXPECT_EQ(root.evaluations, 1);
}

TEST(RootFind, CrossingBeyondUpperEndClampsExactly)
{
    // f > 0 on all of [0, 0.9]: the answer is the clamp, exactly.
    const auto root = decreasingRoot(
        [](double x, double &slope) PPEP_NONBLOCKING {
            slope = -1.0 - 2.0 * x;
            return 2.0 - x - x * x;
        },
        0.0, 0.9, 1e-15, 64);
    EXPECT_EQ(root.x, 0.9);
    EXPECT_EQ(root.evaluations, 2);
}

TEST(RootFind, NewtonLeavingTheBracketFallsBackToBisection)
{
    // With z = 20 (x - 0.7), f = -z / (1 + |z|) and a Newton step takes
    // z to -z |z|, so unguarded Newton diverges once |z| > 1: from the
    // probe at 0.92 it jumps below 0, and from there far beyond 0.92.
    const auto f = [](double x, double &slope) PPEP_NONBLOCKING {
        const double z = 20.0 * (x - 0.7);
        const double d = 1.0 + std::fabs(z);
        slope = -20.0 / (d * d);
        return -z / d;
    };
    const auto root = decreasingRoot(f, 0.0, 0.92, 1e-15, 64);
    EXPECT_NEAR(root.x, 0.7, 1e-15);
    EXPECT_LT(root.evaluations, 20);
}

TEST(RootFind, StopsAtTheEvaluationBudget)
{
    int calls = 0;
    const auto root = decreasingRoot(
        [&](double x, double &slope) PPEP_NONBLOCKING {
            ++calls;
            slope = -1.0;
            return 0.5 - x;
        },
        0.0, 0.9, 1e-15, 1);
    EXPECT_EQ(root.x, 0.0);
    EXPECT_EQ(root.evaluations, 1);
    EXPECT_EQ(calls, 1);
}

} // namespace
