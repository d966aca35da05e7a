/**
 * @file
 * Capability-annotated synchronisation primitives.
 *
 * This is the ONLY file in src/ppep allowed to name std::mutex
 * (tools/ppep_lint.py, rule `raw-sync`). Everything else locks through
 * these wrappers, which carry Clang Thread Safety Analysis capabilities
 * (util/thread_annotations.hpp): under the PPEP_THREAD_SAFETY build, an
 * access to a PPEP_GUARDED_BY member without the lock, a call into a
 * PPEP_REQUIRES function without it, or an acquisition that inverts a
 * declared order refuses to compile. On GCC the annotations vanish and
 * the wrappers are exactly std::mutex / std::lock_guard with zero
 * overhead.
 *
 * Deliberately *not* provided: a condition variable, a try-lock, a
 * timed, recursive or reader/writer lock. The one user, ModelStore's
 * per-path lock registry (DESIGN.md section 18), needs none of them,
 * and adding primitives here is how lock soup starts.
 *
 * None of these are for the warm interval path: util::Mutex::lock() is
 * deliberately not PPEP_NONBLOCKING, so taking it anywhere inside the
 * annotated warm-interval call graph is a -Werror=function-effects
 * error, and ppep_lint bans this header from HOT_FILES outright.
 */

#ifndef PPEP_UTIL_SYNC_HPP
#define PPEP_UTIL_SYNC_HPP

#include <mutex>

#include "ppep/util/thread_annotations.hpp"

namespace ppep::util {

/** A std::mutex carrying a thread-safety capability. */
class PPEP_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Block until the mutex is held. Prefer MutexLock. */
    void lock() PPEP_ACQUIRE() { mu_.lock(); }

    /** Release the mutex. */
    void unlock() PPEP_RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** Scoped lock for the common hold-for-the-whole-scope case
 *  (std::lock_guard shape: no unlock, no move). */
class PPEP_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) PPEP_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() PPEP_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

} // namespace ppep::util

#endif // PPEP_UTIL_SYNC_HPP
