// Hash-combining helpers used for memo unification and set-keyed caches.

#ifndef MQO_COMMON_HASH_H_
#define MQO_COMMON_HASH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mqo {

/// Mixes `value` into the running hash `seed` (boost::hash_combine style,
/// widened to 64 bits).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4);
  return seed;
}

inline uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t HashInts(const std::vector<int>& v) {
  uint64_t h = 0x1234567890abcdefull;
  for (int x : v) h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(x)));
  return h;
}

inline uint64_t HashDouble(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Avalanche finalizer (MurmurHash3 fmix64): every input bit affects every
/// output bit. Apply it before taking low bits of a combined hash as a
/// bucket, partition or filter position — HashDouble of an integer leaves
/// the low mantissa bits zero, and HashCombine does not spread them.
inline uint64_t MixHash64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace mqo

#endif  // MQO_COMMON_HASH_H_
