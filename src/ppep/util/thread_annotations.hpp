/**
 * @file
 * Clang Thread Safety Analysis annotations for the concurrency surface.
 *
 * The runtime carries three distinct concurrency disciplines —
 * ModelStore's per-path lock registry, the Fleet thread pool, and the
 * BudgetArbiter barrier lockstep. Until this header, every locking
 * invariant behind them was enforced only dynamically (the TSan CI
 * job) and by comments. These macros map onto
 * Clang's Thread Safety Analysis attributes so the invariants become
 * *compile-time* properties: a build with -Wthread-safety promoted to
 * error (the PPEP_THREAD_SAFETY CMake option) refuses to compile an
 * unguarded access to an annotated member, a call to a PPEP_REQUIRES
 * function without the named lock held, or a lock acquisition that
 * inverts a declared order. Under GCC (and Clang builds without the
 * attributes) everything expands to nothing, mirroring PPEP_NONBLOCKING
 * in util/annotations.hpp.
 *
 * The annotated lock primitives themselves (util::Mutex,
 * util::MutexLock) live in util/sync.hpp — the only file in src/ppep
 * allowed to touch the raw standard-library lock primitives directly
 * (tools/ppep_lint.py, rule `raw-sync`).
 *
 * Two capability flavours are used in the tree:
 *
 *  - real locks: util::Mutex is PPEP_CAPABILITY("mutex"); members it
 *    protects are PPEP_GUARDED_BY(mu_), internal helpers that assume it
 *    is held are PPEP_REQUIRES(mu_), public entry points that take it
 *    are PPEP_EXCLUDES(mu_) so a re-entrant caller is a compile error.
 *
 *  - phantom roles: util::Role is a capability nobody ever blocks on.
 *    It names a *serial execution context* (e.g. the barrier completion
 *    step that runs FleetArbiter::decide()); functions annotated
 *    PPEP_REQUIRES(role) can only be called from code that has claimed
 *    the role via util::RoleGuard, which documents — and under clang
 *    enforces — that the call site sits in the barrier-serial section.
 *
 * See DESIGN.md section 18 for the per-subsystem capability map and the
 * lock-order table.
 */

#ifndef PPEP_UTIL_THREAD_ANNOTATIONS_HPP
#define PPEP_UTIL_THREAD_ANNOTATIONS_HPP

// ---------------------------------------------------------------------------
// Attribute detection. Thread safety attributes are GNU-style (they
// predate C++11 attributes); guard on __has_attribute so the macros
// vanish on GCC and on exotic clangs without the analysis.
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by) && __has_attribute(capability)
#define PPEP_HAS_THREAD_SAFETY_ATTRIBUTES 1
#endif
#endif

#if defined(PPEP_HAS_THREAD_SAFETY_ATTRIBUTES)
#define PPEP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PPEP_THREAD_ANNOTATION_(x)
#endif

/** Marks a class as a capability (lockable resource or phantom role). */
#define PPEP_CAPABILITY(x) PPEP_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII class whose lifetime holds a capability. */
#define PPEP_SCOPED_CAPABILITY PPEP_THREAD_ANNOTATION_(scoped_lockable)

/** Member readable/writable only while holding the capability. */
#define PPEP_GUARDED_BY(x) PPEP_THREAD_ANNOTATION_(guarded_by(x))

/** Declared lock order: this capability is acquired after the named
 *  ones. Violations surface under -Wthread-safety-beta. */
#define PPEP_ACQUIRED_AFTER(...) \
    PPEP_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/** Caller must hold the capabilities exclusively. */
#define PPEP_REQUIRES(...) \
    PPEP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities and holds them on return. */
#define PPEP_ACQUIRE(...) \
    PPEP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function releases the capabilities. */
#define PPEP_RELEASE(...) \
    PPEP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Caller must NOT hold the capabilities ("negative" requirement): the
 *  function acquires them itself, so holding one on entry deadlocks.
 *  This is how the registry→path lock order is encoded. */
#define PPEP_EXCLUDES(...) \
    PPEP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

namespace ppep::util {

/**
 * A phantom capability naming a serial execution context rather than a
 * lock: claiming it never blocks and compiles to nothing. Functions
 * annotated PPEP_REQUIRES(role) are thereby restricted — under the
 * thread-safety build — to call sites that hold a RoleGuard on the
 * role, i.e. to the one place the design says may run them (the
 * arbiter's barrier completion step, a test's serial harness). A lock
 * added by accident inside such a function is still caught one wall
 * over: the decide path is PPEP_NONBLOCKING, and util::Mutex::lock()
 * is deliberately not, so -Werror=function-effects rejects it.
 */
class PPEP_CAPABILITY("role") Role
{
  public:
    Role() = default;
    Role(const Role &) = delete;
    Role &operator=(const Role &) = delete;

    /** Claim the role (annotation-only; no runtime effect). */
    void acquire() PPEP_ACQUIRE() {}
    /** Relinquish the role (annotation-only; no runtime effect). */
    void release() PPEP_RELEASE() {}
};

/** RAII claim of a Role for the enclosing scope. Zero-cost. */
class PPEP_SCOPED_CAPABILITY RoleGuard
{
  public:
    explicit RoleGuard(Role &role) PPEP_ACQUIRE(role) : role_(role)
    {
        role_.acquire();
    }
    ~RoleGuard() PPEP_RELEASE() { role_.release(); }

    RoleGuard(const RoleGuard &) = delete;
    RoleGuard &operator=(const RoleGuard &) = delete;

  private:
    Role &role_;
};

} // namespace ppep::util

#endif // PPEP_UTIL_THREAD_ANNOTATIONS_HPP
