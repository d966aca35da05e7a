/**
 * @file
 * Safeguarded Newton root-finding for a strictly decreasing scalar
 * function.
 *
 * The NB contention fixed point (sim/northbridge.cpp) is the zero of a
 * strictly decreasing function of the DRAM utilisation, clamped to the
 * queueing cap. Newton steps with the analytic derivative reach it in a
 * handful of evaluations; a bracket kept from the signs seen so far
 * catches any step that would leave it.
 */

#ifndef PPEP_MATH_ROOT_FIND_HPP
#define PPEP_MATH_ROOT_FIND_HPP

#include <cmath>

#include "ppep/util/annotations.hpp"

namespace ppep::math {

/** Result of decreasingRoot(). */
struct ScalarRoot
{
    /** The last point evaluated: the root, or the clamp. */
    double x = 0.0;
    /** Calls of the function it took. */
    int evaluations = 0;
};

/**
 * Where the strictly decreasing @p f crosses zero, clamped to
 * [@p lo, @p hi]. `f(x, slope)` returns f(x) and stores f'(x) in
 * `slope`. @pre f(lo) >= 0.
 *
 * Newton steps start at lo and keep a bracket [lo, hi] with f(lo) > 0,
 * and f(hi) < 0 once hi has been evaluated. A step that leaves the
 * bracket is replaced by a probe of hi while f(hi) is unknown, and by
 * bisection after; if f(hi) >= 0 the answer is exactly hi. The search
 * stops once a step moves x by at most @p rel_tol relative to x, or
 * after @p max_evaluations calls, and returns the last point evaluated,
 * so whatever f recorded on its last call belongs to the answer.
 */
template <class F>
ScalarRoot
decreasingRoot(F &&f, double lo, double hi, double rel_tol,
               int max_evaluations) PPEP_NONBLOCKING
{
    bool hi_evaluated = false;
    double x = lo;
    double slope = 0.0;
    double g = f(x, slope);
    int evaluations = 1;
    while (g != 0.0 && evaluations < max_evaluations) {
        if (g > 0.0) {
            lo = x;
        } else {
            hi = x;
            hi_evaluated = true;
        }
        double next = x - g / slope;
        // A Newton step below tolerance ends the search even when it
        // rounds onto an end of the bracket.
        if (std::fabs(next - x) > rel_tol * x && !(next > lo && next < hi)) {
            if (hi_evaluated)
                next = 0.5 * (lo + hi);
            else if (x < hi)
                next = hi; // probe the clamp
            else
                break; // f(hi) > 0: the clamp binds
        }
        if (std::fabs(next - x) <= rel_tol * x)
            break;
        x = next;
        g = f(x, slope);
        ++evaluations;
    }
    return {x, evaluations};
}

} // namespace ppep::math

#endif // PPEP_MATH_ROOT_FIND_HPP
