// What the two lockstep kernels (batch_engine.cpp and
// multiclass_batch_engine.cpp) share: the loop and ISA-clone attributes of
// their hot functions, the lane chunk and the padding rule, and the station
// structure every lane of a block must share (the station part of both
// grouping keys and of both kernels' block checks).  The lane packs below
// also carry the hierarchical solver's windowed disaggregation
// (hierarchy_engine.cpp), whose "lanes" are consecutive population levels.
//
// Not part of the public API.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

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

// Lane packs.  The helpers return vectors by value, always inlined: GCC's
// -Wpsabi warning (reported at the end of the including file) that such a
// return's calling convention depends on the ISA concerns no real call.
// Only the kernel translation units include this header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#if defined(__GNUC__)
/// kLaneChunk adjacent lanes of one array, computed on as one: kLaneChunk
/// / W vectors of W doubles, W the width of the vector registers of the
/// ISA clone that runs them (the clone picks W with
/// __builtin_cpu_supports: 8 with AVX-512, 4 with AVX2, else 2).  Each
/// operation applies the same IEEE operation to every lane, so a lane
/// rounds alike at every width, and alike in a one-lane block, whose pack
/// is a plain double.
template <std::size_t W>
struct LanePack {
  typedef double Vec __attribute__((vector_size(W * sizeof(double))));
  static constexpr std::size_t kVecs = kLaneChunk / W;
  Vec v[kVecs];
};

// a OP b vector by vector, for OP one of + - * / (and double + pack, and
// pack * double).
#define MTPERF_PACK_OP(OP, A, AT, B, BT)                           \
  template <std::size_t W>                                        \
  MTPERF_INLINE LanePack<W> operator OP(AT a, BT b) {             \
    LanePack<W> r;                                                \
    for (std::size_t i = 0; i < LanePack<W>::kVecs; ++i) {        \
      r.v[i] = A OP B;                                            \
    }                                                             \
    return r;                                                     \
  }
MTPERF_PACK_OP(+, a.v[i], const LanePack<W>&, b.v[i], const LanePack<W>&)
MTPERF_PACK_OP(-, a.v[i], const LanePack<W>&, b.v[i], const LanePack<W>&)
MTPERF_PACK_OP(*, a.v[i], const LanePack<W>&, b.v[i], const LanePack<W>&)
MTPERF_PACK_OP(/, a.v[i], const LanePack<W>&, b.v[i], const LanePack<W>&)
MTPERF_PACK_OP(+, a, double, b.v[i], const LanePack<W>&)
MTPERF_PACK_OP(*, a.v[i], const LanePack<W>&, b, double)
#undef MTPERF_PACK_OP

/// std::fabs per lane (clears the sign bits); per lane a if a > b, else b;
/// true when a < b in any lane.
template <std::size_t W>
MTPERF_INLINE LanePack<W> abs_pack(const LanePack<W>& a) {
  using Vec = typename LanePack<W>::Vec;
  using Bits = decltype(Vec{} < Vec{});
  LanePack<W> r;
  for (std::size_t i = 0; i < LanePack<W>::kVecs; ++i) {
    r.v[i] = reinterpret_cast<Vec>(reinterpret_cast<Bits>(a.v[i]) &
                                   ~reinterpret_cast<Bits>(-Vec{}));
  }
  return r;
}

template <std::size_t W>
MTPERF_INLINE LanePack<W> max_pack(const LanePack<W>& a,
                                   const LanePack<W>& b) {
  LanePack<W> r;
  for (std::size_t i = 0; i < LanePack<W>::kVecs; ++i) {
    r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  }
  return r;
}

template <std::size_t W>
MTPERF_INLINE bool any_below(const LanePack<W>& a, const LanePack<W>& b) {
  auto below = a.v[0] < b.v[0];
  for (std::size_t i = 1; i < LanePack<W>::kVecs; ++i) below |= a.v[i] < b.v[i];
  bool any = false;
  for (std::size_t i = 0; i < W; ++i) any = any || below[i] != 0;
  return any;
}
#endif

MTPERF_INLINE double abs_pack(double a) { return std::fabs(a); }
MTPERF_INLINE double max_pack(double a, double b) { return a > b ? a : b; }
MTPERF_INLINE bool any_below(double a, double b) { return a < b; }

/// Lanes a pack of type P holds.
template <typename P>
inline constexpr std::size_t kPackLanes =
    std::is_same_v<P, double> ? 1 : kLaneChunk;

/// The pack at p.  Lane arrays are only 16-byte aligned, so vectors are
/// copied in and out one at a time (a whole-pack copy would keep the pack
/// in memory).
template <typename P>
MTPERF_INLINE P load_pack(const double* p) {
  if constexpr (std::is_same_v<P, double>) {
    return *p;
  } else {
    P r;
    for (std::size_t i = 0; i < P::kVecs; ++i) {
      std::memcpy(&r.v[i], p + i * (kLaneChunk / P::kVecs), sizeof(r.v[i]));
    }
    return r;
  }
}

template <typename P>
MTPERF_INLINE void store_pack(double* p, const P& a) {
  if constexpr (std::is_same_v<P, double>) {
    *p = a;
  } else {
    for (std::size_t i = 0; i < P::kVecs; ++i) {
      std::memcpy(p + i * (kLaneChunk / P::kVecs), &a.v[i], sizeof(a.v[i]));
    }
  }
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
