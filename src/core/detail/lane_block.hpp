// What the two lockstep kernels (batch_engine.cpp and
// multiclass_batch_engine.cpp) share: the loop and ISA-clone attributes of
// their hot functions, the lane chunk and the padding rule, and the station
// structure every lane of a block must share (the station part of both
// grouping keys and of both kernels' block checks).
//
// Not part of the public API.
#pragma once

#include <cstddef>
#include <string>

#include "core/network.hpp"

#if defined(__clang__)
#define MTPERF_SIMD _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define MTPERF_SIMD _Pragma("GCC ivdep")
#else
#define MTPERF_SIMD
#endif

// Per-ISA clones of the per-level hot functions.  GCC emits one body per
// listed target and an ifunc resolver that picks the widest one the host
// supports at load time — the binary stays portable, the hot loops still
// get ymm/zmm vectors on hosts that have them.  Both kernels compile with
// -ffp-contract=off, so every clone executes the same IEEE op sequence and
// the pick cannot change results.  ThreadSanitizer builds emit no clones
// (with them, GCC 12's TSan binaries die with SIGSEGV at startup; the
// ifunc resolvers, which run before the sanitizer runtime, are the likely
// cause): the default body gives the same bits.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define MTPERF_ISA_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define MTPERF_HAS_ISA_CLONES 1
#else
#define MTPERF_ISA_CLONES
#endif

#if defined(__GNUC__)
#define MTPERF_INLINE [[gnu::always_inline]] inline
#else
#define MTPERF_INLINE inline
#endif

namespace mtperf::core::detail {

/// Lanes per compile-time inner chunk: one AVX-512 vector, two AVX2
/// vectors, four SSE2 vectors of doubles.
inline constexpr std::size_t kLaneChunk = 8;

/// Lane stride of a block of `lanes` lanes run by the kernels' kFixedLanes
/// instantiation.  A one-lane block (kFixedLanes = 1) runs unpadded, its
/// stride a compile-time 1; a wider block (kFixedLanes = 0) is padded up to
/// a multiple of kLaneChunk, and its padding lanes run an inert recursion
/// whose rows are never read back.
template <std::size_t kFixedLanes>
constexpr std::size_t padded_lanes(std::size_t lanes) {
  return kFixedLanes != 0 ? kFixedLanes
                          : (lanes + kLaneChunk - 1) / kLaneChunk * kLaneChunk;
}

/// True when `a` and `b` have the same station structure: station count,
/// server counts and delay/queueing kinds.
inline bool same_station_structure(const ClosedNetwork& a,
                                   const ClosedNetwork& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const Station& sa = a.stations()[k];
    const Station& sb = b.stations()[k];
    if (sa.servers != sb.servers ||
        (sa.kind == StationKind::kDelay) != (sb.kind == StationKind::kDelay)) {
      return false;
    }
  }
  return true;
}

/// Append `v` to a grouping key as four little-endian bytes.
inline void append_u32(std::string& key, unsigned v) {
  key.push_back(static_cast<char>(v & 0xFF));
  key.push_back(static_cast<char>((v >> 8) & 0xFF));
  key.push_back(static_cast<char>((v >> 16) & 0xFF));
  key.push_back(static_cast<char>((v >> 24) & 0xFF));
}

/// Append the station part of a grouping key: per station its server
/// count and 'D' (delay) or 'Q' (queueing).  Two networks append the same
/// bytes iff same_station_structure holds.
inline void append_station_key(std::string& key,
                               const ClosedNetwork& network) {
  for (const Station& st : network.stations()) {
    append_u32(key, st.servers);
    key.push_back(st.kind == StationKind::kDelay ? 'D' : 'Q');
  }
}

}  // namespace mtperf::core::detail
