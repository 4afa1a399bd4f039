// The one hash-mixing round of the library.
//
// Every digest is a fold of this splitmix64-style round: trace history
// hashes (sim/trace.h), RegVal hashes (common/reg_val.h), explorer state
// keys and result-stream digests (sim/ops.h users), detector and config
// digests (fd/failure_detector.h, sim/service). Changing it changes every
// pinned value: the golden grid (tests/golden_hash_test.cc), the pinned
// RegVal hashes (tests/reg_val_test.cc), the pinned service hashes
// (tests/service_test.cc) and the explorer baseline's memo counters
// (bench/BENCH_explore.baseline.json) all fail on any edit.
#pragma once

#include <cstdint>

namespace wfd {

[[nodiscard]] constexpr std::uint64_t mixDigest(std::uint64_t h,
                                                std::uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

}  // namespace wfd
