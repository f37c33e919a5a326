#include "service/fingerprint.hpp"

#include <bit>
#include <string>

#include "common/error.hpp"
#include "interp/piecewise_cubic.hpp"

namespace mtperf::service {

namespace {

/// splitmix64 finalizer — a cheap, well-mixed 64 -> 64 step.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Two independently seeded accumulation lanes; a collision must match
/// both, which keeps the effective key width at 128 bits.
class Hasher {
 public:
  void mix(std::uint64_t v) noexcept {
    lo_ = mix64(lo_ ^ v);
    hi_ = mix64(hi_ + (v | 1) * 0x9E3779B97F4A7C15ull);
  }

  void mix(double d) noexcept {
    // Canonicalize -0.0 so numerically identical demands hash identically.
    mix(std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d));
  }

  void mix(const std::string& s) noexcept {
    mix(static_cast<std::uint64_t>(s.size()));
    std::uint64_t word = 0;
    int shift = 0;
    for (unsigned char c : s) {
      word |= static_cast<std::uint64_t>(c) << shift;
      shift += 8;
      if (shift == 64) {
        mix(word);
        word = 0;
        shift = 0;
      }
    }
    if (shift != 0) mix(word);
  }

  Fingerprint digest() const noexcept { return Fingerprint{lo_, hi_}; }

 private:
  std::uint64_t lo_ = 0x6D74706572660001ull;  // "mtperf" lane seeds
  std::uint64_t hi_ = 0x6D74706572660002ull;
};

void mix_network(Hasher& h, const core::ClosedNetwork& network) {
  h.mix(static_cast<std::uint64_t>(network.size()));
  h.mix(network.think_time());
  for (const auto& st : network.stations()) {
    h.mix(st.name);
    h.mix(st.visits);
    h.mix(static_cast<std::uint64_t>(st.servers));
    h.mix(static_cast<std::uint64_t>(st.kind));
  }
}

/// Exact content hash of a piecewise cubic: each segment is a degree-3
/// polynomial, pinned down by its endpoint values plus the value and first
/// derivative at the segment midpoint (4 independent constraints).
void mix_piecewise_cubic(Hasher& h, const interp::PiecewiseCubic& cubic) {
  h.mix(std::string("pc"));
  h.mix(static_cast<std::uint64_t>(cubic.extrapolation()));
  const auto& knots = cubic.knots();
  h.mix(static_cast<std::uint64_t>(knots.size()));
  for (const double x : knots) {
    h.mix(x);
    h.mix(cubic.value(x));
  }
  for (std::size_t i = 0; i + 1 < knots.size(); ++i) {
    const double mid = knots[i] + 0.5 * (knots[i + 1] - knots[i]);
    h.mix(cubic.value(mid));
    h.mix(cubic.derivative(mid, 1));
  }
}

/// Fallback for interpolant families that do not expose their coefficients:
/// a dense probe of values (plus boundary derivatives) over the sampled
/// range.  Near-exact in practice; see DESIGN.md for the collision model.
void mix_probed(Hasher& h, const interp::Interpolator1D& fn) {
  constexpr int kProbes = 65;
  h.mix(std::string("probe"));
  h.mix(fn.name());
  const double lo = fn.x_min();
  const double hi = fn.x_max();
  h.mix(lo);
  h.mix(hi);
  if (lo == hi) {
    h.mix(fn.value(lo));
    return;
  }
  const double step = (hi - lo) / (kProbes - 1);
  for (int i = 0; i < kProbes; ++i) {
    h.mix(fn.value(lo + step * i));
  }
  h.mix(fn.derivative(lo, 1));
  h.mix(fn.derivative(hi, 1));
}

void mix_demands(Hasher& h, const core::DemandModel& demands) {
  h.mix(static_cast<std::uint64_t>(demands.axis()));
  h.mix(static_cast<std::uint64_t>(demands.stations()));
  h.mix(static_cast<std::uint64_t>(demands.is_constant()));
  for (std::size_t k = 0; k < demands.stations(); ++k) {
    const interp::Interpolator1D* fn = demands.interpolant(k);
    if (fn == nullptr) {
      // Constant demand (or an opaque per-station function): a single
      // value fully describes constant models, the only interpolant-free
      // kind DemandModel's factories produce.
      h.mix(demands.at(k, 1.0));
    } else if (const auto* cubic =
                   dynamic_cast<const interp::PiecewiseCubic*>(fn)) {
      mix_piecewise_cubic(h, *cubic);
    } else {
      mix_probed(h, *fn);
    }
  }
}

void mix_options(Hasher& h, const core::SolveOptions& options) {
  h.mix(static_cast<std::uint64_t>(options.solver));
  // The result's shape: a utilization-only entry must never answer a
  // request for every row.
  h.mix(static_cast<std::uint64_t>(options.station_rows));
  // Only the controls the selected solver actually reads: unrelated
  // option noise must not split otherwise-identical cache keys.
  switch (options.solver) {
    case core::SolverKind::kSchweitzer:
    case core::SolverKind::kSeidmannSchweitzer:
    case core::SolverKind::kSchweitzerMulticlass:
      h.mix(options.schweitzer.tolerance);
      h.mix(static_cast<std::uint64_t>(options.schweitzer.max_iterations));
      break;
    case core::SolverKind::kApproxMultiserver:
      h.mix(options.approx.tolerance);
      h.mix(static_cast<std::uint64_t>(options.approx.max_iterations));
      break;
    case core::SolverKind::kHierarchical:
      // The partition, truncation tolerance, and detail mode shape the
      // result, so they are key material.  initial_depth is deliberately
      // left out: it only tunes the extraction schedule — the plateau scan
      // stops at the same support either way, so results are identical.
      h.mix(std::string("hier"));
      h.mix(static_cast<std::uint64_t>(options.hierarchy.tiers.size()));
      for (const core::TierSpec& tier : options.hierarchy.tiers) {
        h.mix(tier.name);
        h.mix(static_cast<std::uint64_t>(tier.stations.size()));
        for (const std::size_t k : tier.stations) {
          h.mix(static_cast<std::uint64_t>(k));
        }
      }
      h.mix(options.hierarchy.saturation_tolerance);
      h.mix(static_cast<std::uint64_t>(options.hierarchy.detail));
      break;
    default:
      break;
  }
}

/// Mix the customer-class mix of a multiclass spec.  For the series kinds
/// (exact/Schweitzer) the *axis* class's population is deliberately left
/// out: the series emits one result level per axis population, so mixes
/// differing only in axis depth share one cache key and prefix-trim the
/// deepest solve — the multiclass analogue of the single-class
/// population-prefix reuse.  (options.max_population carries the axis
/// depth; solve() enforces that invariant.)  kMomMulticlass returns a
/// single level at the full mix, so there every population is key
/// material.
void mix_classes(Hasher& h, const core::SolveOptions& options) {
  const auto& classes = options.classes;
  const bool axis_prefixable =
      options.solver != core::SolverKind::kMomMulticlass;
  const std::size_t axis = core::multiclass_axis_class(classes);
  h.mix(std::string("classes"));
  h.mix(static_cast<std::uint64_t>(classes.size()));
  h.mix(static_cast<std::uint64_t>(axis));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const core::CustomerClass& cls = classes[c];
    h.mix(cls.name);
    h.mix(cls.think_time);
    if (axis_prefixable && c == axis) {
      h.mix(std::string("axis"));
    } else {
      h.mix(static_cast<std::uint64_t>(cls.population));
    }
    if (cls.demand_model != nullptr) {
      mix_demands(h, *cls.demand_model);
    } else {
      // Constant demand vector: mirror what mix_demands produces for
      // DemandModel::constant(cls.demands), so a class described either
      // way lands on the same key.
      h.mix(static_cast<std::uint64_t>(core::DemandModel::Axis::kConcurrency));
      h.mix(static_cast<std::uint64_t>(cls.demands.size()));
      h.mix(static_cast<std::uint64_t>(true));
      for (const double d : cls.demands) h.mix(d);
    }
  }
}

}  // namespace

Fingerprint fingerprint(const core::ScenarioSpec& spec) {
  Hasher h;
  mix_network(h, spec.network);
  if (core::is_multiclass(spec.options.solver)) {
    // The single-class demand model is ignored by the multiclass solvers,
    // so it must not split their keys; the class mix is the key material.
    MTPERF_REQUIRE(
        spec.options.max_population ==
            core::multiclass_axis_levels(spec.options.solver,
                                         spec.options.classes),
        "multiclass spec fingerprints require options.max_population == "
        "multiclass_axis_levels(...) (use finalize_multiclass_options)");
    mix_classes(h, spec.options);
  } else {
    mix_demands(h, spec.demands);
  }
  mix_options(h, spec.options);
  return h.digest();
}

}  // namespace mtperf::service
