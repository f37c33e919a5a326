// Structural fingerprints of scenario specs — the cache key of the
// scenario-evaluation engine.
//
// Two specs that would make the solver compute the same numbers must map
// to the same fingerprint, and the fingerprint must *exclude* the two
// things the engine handles itself:
//   * the label (presentation only), and
//   * max_population — exact MVA at population N computes every level
//     1..N on the way, so a cached deep solve answers any shallower
//     request for the same structure (prefix reuse).
//
// What goes in: station structure (names, visits, multiplicities, kinds),
// think time, the demand model's content (exact coefficients for the
// piecewise-cubic family, dense probes otherwise), the solver kind, the
// solver options that kind actually consumes, and the station rows the
// result carries.
//
// Multiclass specs swap the single-class demand model (which their solvers
// ignore) for the class mix: class count, per-class name / think time /
// demand content, and populations — except the *axis* class's population
// for the series kinds, which plays the role max_population plays for
// single-class specs (axis-prefix reuse; see mva_multiclass.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/sweep.hpp"

namespace mtperf::service {

/// 128-bit content hash.  Not cryptographic: collisions are engineered to
/// be negligible (two independently seeded 64-bit lanes), not impossible.
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9E3779B97F4A7C15ull));
  }
};

/// Fingerprint of everything in `spec` that determines solver output,
/// except the label and max_population (see above).
///
/// Demand models are hashed by content: constant values directly;
/// PiecewiseCubic interpolants (the spline family every campaign-derived
/// model uses) exactly, via their knots plus enough point/derivative
/// samples per segment to pin down each cubic; other Interpolator1D
/// implementations via a dense probe grid over their sampled range —
/// near-exact in practice, collisions documented in DESIGN.md.
///
/// Throws mtperf::invalid_argument_error for a multiclass spec whose
/// max_population is not its axis depth (see finalize_multiclass_options).
Fingerprint fingerprint(const core::ScenarioSpec& spec);

}  // namespace mtperf::service
