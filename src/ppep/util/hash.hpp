/**
 * @file
 * The wide FNV-1a step: FNV-1a's offset basis and prime, folding one
 * 64-bit word per xor-multiply instead of one byte.
 *
 * Byte-at-a-time FNV-1a costs eight serially dependent multiplies per
 * word; this form costs one. DigestSink (the telemetry bit-identity
 * witness) and the replay file checksums both fold through this step,
 * so the algorithm is defined once. runtime::fnv1a stays byte-wise: it
 * keys the model cache over inputs of a few bytes.
 */

#ifndef PPEP_UTIL_HASH_HPP
#define PPEP_UTIL_HASH_HPP

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

} // namespace ppep::util

#endif // PPEP_UTIL_HASH_HPP
