/**
 * @file
 * FNV-1a, defined once: the offset basis and prime, the byte-wise
 * hash, and the wide step that folds one 64-bit word per xor-multiply
 * instead of one byte.
 *
 * Byte-at-a-time FNV-1a costs eight serially dependent multiplies per
 * word; the wide form costs one. DigestSink (the telemetry bit-identity
 * witness) and the replay file checksums fold through the wide step.
 * The byte-wise fnv1a, the same step fed one byte at a time, keys the
 * model cache and digests model weights: short inputs.
 */

#ifndef PPEP_UTIL_HASH_HPP
#define PPEP_UTIL_HASH_HPP

#include <cstddef>
#include <cstdint>

#include "ppep/util/annotations.hpp"

namespace ppep::util {

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** Fold one 64-bit word into @p h. */
constexpr std::uint64_t
fnv1aWide(std::uint64_t h, std::uint64_t word) PPEP_NONBLOCKING
{
    return (h ^ word) * kFnvPrime;
}

/** Byte-wise FNV-1a of @p n bytes at @p data, continuing from @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = kFnvOffsetBasis) PPEP_NONBLOCKING
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = fnv1aWide(h, p[i]);
    return h;
}

} // namespace ppep::util

#endif // PPEP_UTIL_HASH_HPP
