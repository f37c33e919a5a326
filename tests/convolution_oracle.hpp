// An exact reference for single-class closed product-form networks: Buzen's
// convolution with load-dependent stations, in long double, scaled so no
// population underflows or overflows.
//
// The network is a think time Z plus stations k with constant demand D_k
// (visits times service time) and a rate law alpha_k(j), the relative
// service capacity with j customers present:
//   * a C-server queue:       alpha(j) = min(j, C);
//   * a delay station:        alpha(j) = j;
//   * an explicit profile:    alpha(j) = rates[j-1], clamped at its last
//                             entry past its end.
// Each station contributes f_k(j) = D_k^j / prod_{i<=j} alpha_k(i) and the
// think time f_Z(j) = Z^j / j!; G(n) is their convolution, and
//   X(n)   = G(n-1) / G(n),
//   Q_k(n) = sum_j j f_k(j) G_{-k}(n-j) / G(n),
// with G_{-k} the convolution without station k.  Every sum has positive
// terms only, so it loses no digits to cancellation.  Each value carries
// its own binary exponent (ScaledValue), and every convolution sum rescales
// its terms to the largest one, so networks whose G(n) leaves long
// double's range (large N, hundreds of servers) stay exact.
//
// This is the reference the exact multi-server recursion (kMvasd) and the
// hierarchical solver's reduced network are checked against.  It is
// O(K N^2) time: fine for tests, far too slow for a solver.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/network.hpp"

namespace mtperf::oracle {

/// A positive long double m * 2^e, m in [0.5, 1) (or m = 0 for zero), so
/// products and ratios of very small or very large values keep full
/// precision.
struct ScaledValue {
  long double m = 0.0L;
  long e = 0;

  static ScaledValue of(long double v) {
    ScaledValue s;
    int exponent = 0;
    s.m = std::frexp(v, &exponent);
    s.e = exponent;
    return s;
  }
  ScaledValue times(long double v) const { return times(of(v)); }
  ScaledValue times(const ScaledValue& o) const {
    if (m == 0.0L || o.m == 0.0L) return ScaledValue{};
    ScaledValue s = of(m * o.m);
    s.e += e + o.e;
    return s;
  }
  /// this / o as a long double (the ratio must be in range).
  long double over(const ScaledValue& o) const {
    return std::ldexp(m / o.m, static_cast<int>(e - o.e));
  }
};

/// sum_j a[j] * b[n - j] for j = 0..n, rescaled to the largest term.
inline ScaledValue convolve_at(const std::vector<ScaledValue>& a,
                               const std::vector<ScaledValue>& b,
                               std::size_t n) {
  long top = 0;
  bool any = false;
  std::vector<ScaledValue> terms(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    terms[j] = a[j].times(b[n - j]);
    if (terms[j].m == 0.0L) continue;
    top = any ? std::max(top, terms[j].e) : terms[j].e;
    any = true;
  }
  if (!any) return ScaledValue{};
  long double sum = 0.0L;
  for (const ScaledValue& t : terms) {
    if (t.m != 0.0L) sum += std::ldexp(t.m, static_cast<int>(t.e - top));
  }
  ScaledValue s = ScaledValue::of(sum);
  s.e += top;
  return s;
}

inline std::vector<ScaledValue> convolve(const std::vector<ScaledValue>& a,
                                         const std::vector<ScaledValue>& b) {
  std::vector<ScaledValue> out(a.size());
  for (std::size_t n = 0; n < a.size(); ++n) out[n] = convolve_at(a, b, n);
  return out;
}

/// One station of the oracle network.
struct OracleStation {
  double demand = 0.0;  ///< D_k = visits * service time
  unsigned servers = 1;
  bool delay = false;
  /// Explicit rate profile alpha(1), alpha(2), ...; overrides `servers`
  /// and `delay` when nonempty.
  std::vector<double> rates{};

  long double alpha(unsigned j) const {
    if (!rates.empty()) {
      return rates[std::min<std::size_t>(j, rates.size()) - 1];
    }
    if (delay) return static_cast<long double>(j);
    return static_cast<long double>(std::min(j, servers));
  }
};

/// Exact metrics for populations 1..N (index n - 1).
struct OracleSolution {
  std::vector<double> throughput;
  std::vector<double> response_time;  ///< n / X - Z
  /// queue[n - 1][k] = Q_k(n); empty unless requested.
  std::vector<std::vector<double>> queue;
};

/// f(j), j = 0..n_max, of a station with demand d and rate law `alpha`.
template <class Alpha>
std::vector<ScaledValue> station_terms(double d, unsigned n_max,
                                       Alpha&& alpha) {
  std::vector<ScaledValue> f(n_max + 1);
  f[0] = ScaledValue::of(1.0L);
  for (unsigned j = 1; j <= n_max; ++j) {
    f[j] = f[j - 1].times(static_cast<long double>(d) / alpha(j));
  }
  return f;
}

inline OracleSolution solve(const std::vector<OracleStation>& stations,
                            double think, unsigned max_population,
                            bool with_queues = true) {
  const std::size_t k_count = stations.size();
  std::vector<std::vector<ScaledValue>> f;
  for (const OracleStation& st : stations) {
    f.push_back(station_terms(st.demand, max_population,
                              [&st](unsigned j) { return st.alpha(j); }));
  }
  // The think time is a delay station of its own; Z = 0 contributes the
  // identity (f(0) = 1, f(j > 0) = 0).
  std::vector<ScaledValue> f_think(max_population + 1);
  f_think[0] = ScaledValue::of(1.0L);
  if (think > 0.0) {
    f_think = station_terms(think, max_population, [](unsigned j) {
      return static_cast<long double>(j);
    });
  }
  // prefix[k] = f_think * f_0 * ... * f_{k-1}; suffix[k] = f_k * ... *
  // f_{K-1}; G = prefix[K], G_{-k} = prefix[k] * suffix[k + 1].
  std::vector<std::vector<ScaledValue>> prefix{f_think};
  for (std::size_t k = 0; k < k_count; ++k) {
    prefix.push_back(convolve(prefix.back(), f[k]));
  }
  const std::vector<ScaledValue>& g = prefix.back();

  OracleSolution out;
  for (unsigned n = 1; n <= max_population; ++n) {
    const long double x = g[n - 1].over(g[n]);
    out.throughput.push_back(static_cast<double>(x));
    out.response_time.push_back(
        static_cast<double>(static_cast<long double>(n) / x - think));
  }
  if (!with_queues) return out;

  std::vector<ScaledValue> identity(max_population + 1);
  identity[0] = ScaledValue::of(1.0L);
  std::vector<std::vector<ScaledValue>> suffix(k_count + 1, identity);
  for (std::size_t k = k_count; k-- > 0;) {
    suffix[k] = convolve(f[k], suffix[k + 1]);
  }
  out.queue.assign(max_population, std::vector<double>(k_count, 0.0));
  for (std::size_t k = 0; k < k_count; ++k) {
    const std::vector<ScaledValue> others =
        convolve(prefix[k], suffix[k + 1]);
    // j f_k(j) as its own sequence, so the queue is one more convolution.
    std::vector<ScaledValue> jf(max_population + 1);
    for (unsigned j = 1; j <= max_population; ++j) {
      jf[j] = f[k][j].times(static_cast<long double>(j));
    }
    for (unsigned n = 1; n <= max_population; ++n) {
      out.queue[n - 1][k] =
          static_cast<double>(convolve_at(jf, others, n).over(g[n]));
    }
  }
  return out;
}

/// The stations of `network` with per-visit service times
/// `service_times`: multi-server and delay stations by their kind.
inline std::vector<OracleStation> stations_of(
    const core::ClosedNetwork& network,
    const std::vector<double>& service_times) {
  std::vector<OracleStation> out;
  for (std::size_t k = 0; k < network.size(); ++k) {
    const core::Station& st = network.station(k);
    OracleStation o;
    o.demand = st.visits * service_times[k];
    o.servers = st.servers;
    o.delay = st.kind == core::StationKind::kDelay;
    out.push_back(std::move(o));
  }
  return out;
}

inline OracleSolution solve(const core::ClosedNetwork& network,
                            const std::vector<double>& service_times,
                            unsigned max_population,
                            bool with_queues = true) {
  return solve(stations_of(network, service_times), network.think_time(),
               max_population, with_queues);
}

}  // namespace mtperf::oracle
