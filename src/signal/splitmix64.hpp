// splitmix64 and the seeded decisions built on it.
//
// This is the one mixer behind every deterministic schedule in the tree:
// the fleet chaos injector, the wire-fault shim, the packet-attack streams,
// the user → shard map and the cohort dedup hash. Keep it the only copy. A
// private copy that drifts silently changes what every recorded chaos seed,
// attack stream, dedup bucket and shard assignment means, and same-build
// replay tests cannot notice; tests/determinism_golden_test.cpp pins the
// values across versions instead.
//
// Everything here is inline: shard_of runs on every ingest and the dedup
// hash on every training sample.
#pragma once

#include <cstdint>

namespace sift::signal {

/// splitmix64's output finaliser: three xor-shift-multiply steps, no
/// increment. A bijection that spreads structured keys (sequential ids).
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One stateless splitmix64 step: golden-ratio increment, then finalise.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return splitmix64_finalize(x + 0x9e3779b97f4a7c15ULL);
}

/// The top 53 bits of @p h as a double in [0, 1).
constexpr double uniform01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace detail {
constexpr std::uint64_t fold_keys(std::uint64_t salt) noexcept {
  return splitmix64(salt);
}
template <typename... Rest>
constexpr std::uint64_t fold_keys(std::uint64_t salt, std::uint64_t key,
                                  Rest... rest) noexcept {
  return splitmix64(key ^ fold_keys(salt, rest...));
}
}  // namespace detail

/// The hash of one decision coordinate, a pure function of its arguments:
/// seeded_hash(seed, salt, k0, k1) = mix(seed ^ mix(k0 ^ mix(k1 ^
/// mix(salt)))). The salt names the decision kind, so different kinds at
/// the same coordinate flip independent coins.
template <typename... Keys>
constexpr std::uint64_t seeded_hash(std::uint64_t seed, std::uint64_t salt,
                                    Keys... keys) noexcept {
  return splitmix64(
      seed ^ detail::fold_keys(salt, static_cast<std::uint64_t>(keys)...));
}

/// True with probability @p p for a well-mixed @p h; never for p <= 0 and
/// always for p >= 1.
constexpr bool coin(double p, std::uint64_t h) noexcept {
  return p > 0.0 && uniform01(h) < p;
}

}  // namespace sift::signal
