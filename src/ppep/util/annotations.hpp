/**
 * @file
 * Function-effect annotations for the warm-interval hot path.
 *
 * PPEP's value is that prediction is cheap enough to run online every
 * 200 ms interval; PRs 3-4 made the steady-state governing loop
 * allocation-free, but that invariant was only proven dynamically
 * (test_zero_alloc). This header turns it into a *compile-time*
 * property: functions on the warm-interval call graph are annotated
 * PPEP_NONBLOCKING, and a Clang build with -Wfunction-effects promoted
 * to error refuses to compile any call from that graph into code that
 * may allocate, lock, throw, or otherwise block. Under GCC (and older
 * Clang) the macros are no-ops, so the annotations cost nothing where
 * they cannot be checked.
 *
 * Two escape hatches exist, and they are deliberately distinct:
 *
 *  - PPEP_RT_WARMUP_BEGIN/END marks a *warm-up-only* allocation: a
 *    resize()/assign()/push_back() of a buffer whose length its owner
 *    cannot know when it is built (a caller-owned record, a queue whose
 *    depth the fault plan sets), which grows on the first few intervals
 *    and is a no-op once capacity is warm. A buffer whose size the
 *    ChipConfig fixes is sized at construction instead and needs no
 *    escape. It suppresses the compile-time diagnostic AND disables
 *    RealtimeSanitizer for the scope, because the allocation is real
 *    (on cold iterations) and by design. test_zero_alloc remains the
 *    proof that these sites go quiet once warm.
 *
 *  - PPEP_RT_OPAQUE_BEGIN/END marks a call the effect analysis cannot
 *    see through but that is non-blocking in practice (std::to_chars,
 *    std::sort over a raw array, steady_clock::now). It suppresses only the compile-time diagnostic; RTSan
 *    still instruments the region at runtime, so a lie here is caught
 *    by the PPEP_SANITIZE=realtime CI job.
 *
 * Every escape must carry a `// rt-escape:` justification comment on
 * the line(s) above it — tools/ppep_lint.py rejects bare escapes.
 *
 * See DESIGN.md section 13 for the full static safety model.
 */

#ifndef PPEP_UTIL_ANNOTATIONS_HPP
#define PPEP_UTIL_ANNOTATIONS_HPP

// ---------------------------------------------------------------------------
// Effect attributes (Clang >= 20; no-ops elsewhere).
//
// [[clang::nonblocking]] is a *function-type* attribute: it must appear
// on every declaration of the function (including out-of-line
// definitions and virtual overrides), placed after the parameter list /
// cv-qualifiers / noexcept-specifier and before `override`.
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::nonblocking)
#define PPEP_HAS_FUNCTION_EFFECTS 1
#endif
#endif

#if defined(PPEP_HAS_FUNCTION_EFFECTS)
/** The function neither blocks nor allocates (implies nonallocating). */
#define PPEP_NONBLOCKING [[clang::nonblocking]]
/** The function does not allocate but may block. */
#define PPEP_NONALLOCATING [[clang::nonallocating]]
#else
#define PPEP_NONBLOCKING
#define PPEP_NONALLOCATING
#endif

// ---------------------------------------------------------------------------
// RealtimeSanitizer bridge (-fsanitize=realtime, PPEP_SANITIZE=realtime).
// ---------------------------------------------------------------------------
#if defined(__has_feature)
#if __has_feature(realtime_sanitizer)
#define PPEP_HAS_RTSAN 1
#endif
#endif

#if defined(PPEP_HAS_RTSAN)
#include <sanitizer/rtsan_interface.h>
#endif

namespace ppep::util {

/**
 * RAII scope that tells RealtimeSanitizer to ignore intercepted calls
 * (malloc, locks, blocking syscalls) until destruction. Used only by
 * PPEP_RT_WARMUP_* for allocations that are warm-up-growth by design;
 * everything else stays instrumented.
 */
class RtWarmupScope
{
  public:
#if defined(PPEP_HAS_RTSAN)
    RtWarmupScope() { __rtsan_disable(); }
    ~RtWarmupScope() { __rtsan_enable(); }
#else
    RtWarmupScope() = default;
    ~RtWarmupScope() = default;
#endif
    RtWarmupScope(const RtWarmupScope &) = delete;
    RtWarmupScope &operator=(const RtWarmupScope &) = delete;
};

} // namespace ppep::util

// ---------------------------------------------------------------------------
// Escape regions. The diagnostic pragmas are Clang-only; GCC has
// -Wunknown-pragmas inside -Wall, so they must vanish entirely there.
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define PPEP_RT_SUPPRESS_PUSH_                                                \
    _Pragma("clang diagnostic push")                                          \
        _Pragma("clang diagnostic ignored \"-Wfunction-effects\"")
#define PPEP_RT_SUPPRESS_POP_ _Pragma("clang diagnostic pop")
#else
#define PPEP_RT_SUPPRESS_PUSH_
#define PPEP_RT_SUPPRESS_POP_
#endif

/**
 * Warm-up-only allocation region: compile-time diagnostic suppressed
 * and RTSan disabled for the enclosed scope. The enclosed statements
 * must be capacity-growing no-ops once scratch is warm (proven by
 * test_zero_alloc). Requires a `// rt-escape:` justification comment.
 */
#define PPEP_RT_WARMUP_BEGIN                                                  \
    PPEP_RT_SUPPRESS_PUSH_                                                    \
    {                                                                         \
        [[maybe_unused]] const ::ppep::util::RtWarmupScope                    \
            ppep_rt_warmup_scope_;
#define PPEP_RT_WARMUP_END                                                    \
    }                                                                         \
    PPEP_RT_SUPPRESS_POP_

/**
 * Opaque-but-nonblocking call region: compile-time diagnostic
 * suppressed, RTSan left ON so the claim is still verified at runtime.
 * Requires a `// rt-escape:` justification comment.
 */
// Unlike WARMUP this introduces no scope (there is no RAII object), so
// declarations inside the region stay visible after it.
#define PPEP_RT_OPAQUE_BEGIN PPEP_RT_SUPPRESS_PUSH_
#define PPEP_RT_OPAQUE_END PPEP_RT_SUPPRESS_POP_

#endif // PPEP_UTIL_ANNOTATIONS_HPP
