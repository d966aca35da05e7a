/**
 * @file
 * The one worker pool: fixed worker threads over independent jobs.
 *
 *  - runWorkers(w, work) runs work(0) .. work(w-1), each on its own
 *    thread, all at the same time, and joins them. Use it when the
 *    workers must meet each other (the arbitrated fleet's barrier).
 *  - parallelFor(n, workers, fn) runs fn(i) exactly once for every
 *    i < n. Workers claim indices from one atomic counter in
 *    increasing order, so the longest jobs belong at the front. Each
 *    result lands in its own slot, which makes the output independent
 *    of the schedule.
 *
 * A job that throws does not stop the others. Once every worker has
 * joined, the exception of the lowest throwing index is rethrown on
 * the caller, so which error surfaces does not depend on timing.
 * With one worker, everything runs inline on the caller.
 */

#ifndef PPEP_UTIL_PARALLEL_HPP
#define PPEP_UTIL_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace ppep::util {

/** Run work(w) for every w < @p workers, each on its own thread (or
 *  inline when there is one), and join them all. */
template <typename Work>
void
runWorkers(std::size_t workers, const Work &work)
{
    if (workers == 1) {
        work(std::size_t{0});
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(std::cref(work), w);
    for (auto &th : pool)
        th.join();
}

/**
 * Run fn(i) once for every i < @p n on min(max(workers, 1), n) threads.
 * Returns the per-index results when fn returns a value (`bool` is not
 * allowed: std::vector<bool> slots share bytes).
 */
template <typename Fn>
auto
parallelFor(std::size_t n, std::size_t workers, Fn &&fn)
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> slots are not thread-safe");
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto runAll = [&](auto &&job) {
        runWorkers(std::clamp<std::size_t>(workers, 1,
                                           std::max<std::size_t>(n, 1)),
                   [&](std::size_t) {
                       for (;;) {
                           const std::size_t i = next.fetch_add(
                               1, std::memory_order_relaxed);
                           if (i >= n)
                               return;
                           try {
                               job(i);
                           } catch (...) {
                               errors[i] = std::current_exception();
                           }
                       }
                   });
        for (const auto &e : errors)
            if (e)
                std::rethrow_exception(e);
    };
    if constexpr (std::is_void_v<R>) {
        runAll(fn);
    } else {
        std::vector<R> out(n);
        runAll([&](std::size_t i) { out[i] = fn(i); });
        return out;
    }
}

} // namespace ppep::util

#endif // PPEP_UTIL_PARALLEL_HPP
