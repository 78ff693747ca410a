/**
 * @file
 * The one hash combiner shared by every hashing site in the repository
 * — sample deduplication (`config_hash`) and evaluation-cache keys.
 * The caching layer's
 * correctness argument ("the cache dedupes on the same identity the
 * samplers do") depends on all of them mixing identically, so the
 * combiner lives here rather than being re-derived per module.
 */
#ifndef CAFQA_COMMON_HASH_HPP
#define CAFQA_COMMON_HASH_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace cafqa {

/** Conventional starting value for hash_mix chains. */
inline constexpr std::size_t kHashSeed = 0x9e3779b97f4a7c15ull;

/** Fold one word into a running hash (splitmix/boost-combine style). */
inline std::size_t
hash_mix(std::size_t h, std::uint64_t word)
{
    h ^= static_cast<std::size_t>(word) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h;
}

/**
 * One quantized point coordinate — the identity of the evaluation
 * cache's continuous keys (points within one `resolution` step are
 * "the same"). Saturates at the int64 range so a huge value or ultra-fine
 * resolution cannot overflow llround into unspecified results.
 */
inline std::int64_t
quantize_coordinate(double value, double resolution)
{
    const double scaled = value / resolution;
    constexpr double kMax = 9.2e18; // just inside int64 range
    if (scaled >= kMax) {
        return std::numeric_limits<std::int64_t>::max();
    }
    if (scaled <= -kMax) {
        return std::numeric_limits<std::int64_t>::min();
    }
    return static_cast<std::int64_t>(std::llround(scaled));
}

} // namespace cafqa

#endif // CAFQA_COMMON_HASH_HPP
