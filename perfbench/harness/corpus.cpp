#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^
                    (stream + 1) * 0xc2b2ae3d27d4eb4full ^
                    (index + 1) * 0x165667b19e3779f9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return static_cast<double>(mix(seed, stream, index) >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("Zipf needs at least one rank");
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double Zipf::probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

namespace {

void append_format(std::string& out, const char* fmt, double v) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof buf, fmt, v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_uint(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

// The 12-station VINS-like fleet: load / app / db servers, each monitored at
// CPU, disk, and both NIC directions (the paper's testbed layout).
constexpr std::size_t kFleet = 12;
constexpr const char* kFleetNames[kFleet] = {
    "load/cpu", "load/disk", "load/net-tx", "load/net-rx",
    "app/cpu",  "app/disk",  "app/net-tx",  "app/net-rx",
    "db/cpu",   "db/disk",   "db/net-tx",   "db/net-rx"};
constexpr double kFleetDemand[kFleet] = {0.004, 0.010, 0.002, 0.002,
                                         0.012, 0.008, 0.003, 0.003,
                                         0.020, 0.034, 0.004, 0.004};
constexpr unsigned kFleetCores = 16;
bool is_cpu(std::size_t k) { return k % 4 == 0; }
bool is_disk(std::size_t k) { return k % 4 == 1; }

constexpr double kSplineX[] = {1, 60, 250, 600, 1000, 1500};
constexpr unsigned kFleetPopulation = 1500;

// Cold streams: one per family draw site, so families never share values.
enum Stream : std::uint64_t {
  kJitter = 10,
  kClassJitter = 11,
  kMomJitter = 12,
  kTierPick = 13,
  kTierScale = 14,
  kHotDemand = 20,
  kHotKey = 21,
  kHotDepth = 22,
  kHotOrder = 23,
  kCampaign = 30,
};

/// Fixed family cycle: one period of 16 requests.  The counts give each
/// family a comparable share of server CPU on the reference machine (see
/// perfbench/README.md, "Cold traffic mix").
constexpr Family kCycle[] = {
    Family::kMvasdFleet,    Family::kSchweitzerMix, Family::kMvasdFleet,
    Family::kSchweitzerMix, Family::kMomMix,        Family::kSchweitzerMix,
    Family::kMvasdFleet,    Family::kSchweitzerMix, Family::kHierarchical,
    Family::kMvasdFleet,    Family::kSchweitzerMix, Family::kMvasdFleet,
    Family::kSchweitzerMix, Family::kMomMix,        Family::kSchweitzerMix,
    Family::kHierarchical};
constexpr std::size_t kCycleLength = sizeof kCycle / sizeof kCycle[0];

void render_fleet_spline(std::uint64_t seed, std::uint64_t index,
                         std::string& out) {
  out += "\"think\":1.0,\"stations\":[";
  for (std::size_t k = 0; k < kFleet; ++k) {
    out += k == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += kFleetNames[k];
    out += is_cpu(k) ? "\",\"servers\":16}" : "\"}";
  }
  out += "],\"demands\":{\"type\":\"spline\",\"axis\":\"concurrency\",\"x\":[";
  for (std::size_t j = 0; j < std::size(kSplineX); ++j) {
    if (j) out += ',';
    append_uint(out, static_cast<std::uint64_t>(kSplineX[j]));
  }
  out += "],\"y\":[";
  for (std::size_t k = 0; k < kFleet; ++k) {
    out += k == 0 ? "[" : ",[";
    for (std::size_t j = 0; j < std::size(kSplineX); ++j) {
      const double x = kSplineX[j];
      // CPUs get cheaper with load (caching), disks dearer (contention).
      const double shape = is_cpu(k)    ? 0.75 + 0.25 * std::exp(-x / 300.0)
                           : is_disk(k) ? 1.0 + 0.2 * x / 1500.0
                                        : 1.0;
      const double jitter =
          0.9 + 0.2 * unit(seed, kJitter, index * 128 + k * 8 + j);
      if (j) out += ',';
      append_format(out, "%.9g", kFleetDemand[k] * shape * jitter);
    }
    out += ']';
  }
  out += "]},\"solver\":\"mvasd\",\"max_population\":";
  append_uint(out, kFleetPopulation);
}

/// Three-class mixes on the fleet.  The multiclass solvers take single-
/// server stations only, so each 16-core CPU goes through the Seidmann
/// transform: a queueing station with D/16 plus a delay station with the
/// remaining 15/16 of the demand.
void render_fleet_mix(std::uint64_t seed, std::uint64_t index,
                      std::string& out) {
  out += "\"stations\":[";
  for (std::size_t k = 0; k < kFleet; ++k) {
    out += k == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += kFleetNames[k];
    out += "\"}";
  }
  for (std::size_t k = 0; k < kFleet; k += 4) {
    out += ",{\"name\":\"";
    out += kFleetNames[k];
    out += "-wait\",\"kind\":\"delay\"}";
  }
  out += "],\"classes\":[";
  constexpr const char* kNames[] = {"browse", "search", "buy"};
  constexpr unsigned kPopulation[] = {20, 12, 120};
  constexpr double kThink[] = {2.0, 4.0, 1.0};
  constexpr double kScale[] = {1.0, 0.6, 1.8};
  for (std::size_t c = 0; c < 3; ++c) {
    out += c == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += kNames[c];
    out += "\",\"population\":";
    append_uint(out, kPopulation[c]);
    out += ",\"think\":";
    append_format(out, "%.1f", kThink[c]);
    out += ",\"demands\":[";
    std::vector<double> wait;
    for (std::size_t k = 0; k < kFleet; ++k) {
      const double d =
          kFleetDemand[k] * kScale[c] *
          (0.9 + 0.2 * unit(seed, kClassJitter, index * 64 + c * 16 + k));
      if (k) out += ',';
      if (is_cpu(k)) {
        append_format(out, "%.9g", d / kFleetCores);
        wait.push_back(d * (kFleetCores - 1) / kFleetCores);
      } else {
        append_format(out, "%.9g", d);
      }
    }
    for (double w : wait) append_format(out, ",%.9g", w);
    out += "]}";
  }
  out += "],\"solver\":\"schweitzer-multiclass\"";
}

/// Three-class mixes on a four-station network, small enough for the MoM
/// engine's state-space guard.
void render_mom_mix(std::uint64_t seed, std::uint64_t index,
                    std::string& out) {
  constexpr const char* kStations[] = {"web/cpu", "app/cpu", "db/cpu",
                                       "db/disk"};
  constexpr double kBase[] = {0.006, 0.010, 0.008, 0.012};
  constexpr std::size_t kStationCount = std::size(kStations);
  out += "\"stations\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    out += k == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += kStations[k];
    out += "\"}";
  }
  out += "],\"classes\":[";
  constexpr const char* kNames[] = {"browse", "search", "buy"};
  constexpr unsigned kPopulation[] = {5, 4, 6};
  constexpr double kThink[] = {2.0, 3.0, 1.0};
  constexpr double kScale[] = {0.8, 1.2, 1.6};
  for (std::size_t c = 0; c < 3; ++c) {
    out += c == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += kNames[c];
    out += "\",\"population\":";
    append_uint(out, kPopulation[c]);
    out += ",\"think\":";
    append_format(out, "%.1f", kThink[c]);
    out += ",\"demands\":[";
    for (std::size_t k = 0; k < kStationCount; ++k) {
      const double d =
          kBase[k] * kScale[c] *
          (0.9 + 0.2 * unit(seed, kMomJitter, index * 32 + c * 8 + k));
      if (k) out += ',';
      append_format(out, "%.9g", d);
    }
    out += "]}";
  }
  out += "],\"solver\":\"mom-multiclass\"";
}

/// A 30-service tiered mesh: five tiers of one gateway and five replicated
/// pools; each gateway forwards to the next tier.  The variant scales one
/// tier's pool demands, so the other four tiers' FES profiles repeat.
void render_tiered(std::uint64_t seed, std::uint64_t index,
                   std::string& out) {
  constexpr unsigned kTiers = 5;
  constexpr unsigned kPools = 5;
  constexpr unsigned kPoolServers[kPools] = {32, 24, 16, 8, 4};
  constexpr double kPoolDemand[kPools] = {0.020, 0.015, 0.010, 0.005, 0.002};
  const unsigned edited =
      static_cast<unsigned>(mix(seed, kTierPick, index) % kTiers);
  const double scale = 0.8 + 0.4 * unit(seed, kTierScale, index);
  out += "\"cmd\":\"workmodel\",\"entry\":\"t0/gw\",\"think\":1.0,"
         "\"services\":{";
  for (unsigned t = 0; t < kTiers; ++t) {
    std::string tier = "t";
    tier += std::to_string(t);
    if (t) out += ',';
    out += '"';
    out += tier;
    out += "/gw\":{\"demand\":0.002,\"tier\":\"";
    out += tier;
    out += "\",\"calls\":[";
    for (unsigned p = 0; p < kPools; ++p) {
      if (p) out += ',';
      out += "{\"to\":\"";
      out += tier;
      out += "/p";
      append_uint(out, p);
      out += "\"}";
    }
    if (t + 1 < kTiers) {
      out += ",{\"to\":\"t";
      append_uint(out, t + 1);
      out += "/gw\"}";
    }
    out += "]}";
    for (unsigned p = 0; p < kPools; ++p) {
      out += ",\"";
      out += tier;
      out += "/p";
      append_uint(out, p);
      out += "\":{\"demand\":";
      append_format(out, "%.9g",
                    kPoolDemand[p] * (t == edited ? scale : 1.0));
      out += ",\"servers\":";
      append_uint(out, kPoolServers[p]);
      out += ",\"tier\":\"";
      out += tier;
      out += "\"}";
    }
  }
  out += "},\"solver\":\"hierarchical\",\"max_population\":600,"
         "\"hierarchy\":{\"tolerance\":0.001,\"initial_depth\":64}";
}

}  // namespace

Family ColdCorpus::family(std::uint64_t index) const {
  return kCycle[index % kCycleLength];
}

void ColdCorpus::render(std::uint64_t index, std::uint64_t id,
                        std::string& out) const {
  out += "{\"id\":";
  append_uint(out, id);
  out += ",\"label\":\"c";
  append_uint(out, index);
  out += "\",";
  switch (family(index)) {
    case Family::kMvasdFleet: render_fleet_spline(seed_, index, out); break;
    case Family::kSchweitzerMix: render_fleet_mix(seed_, index, out); break;
    case Family::kMomMix: render_mom_mix(seed_, index, out); break;
    case Family::kHierarchical: render_tiered(seed_, index, out); break;
  }
  out += "}\n";
}

HotCorpus::HotCorpus(std::uint64_t seed)
    : seed_(seed), zipf_(kKeys, kZipfS), key_of_rank_(kKeys),
      demands_(kKeys) {
  std::iota(key_of_rank_.begin(), key_of_rank_.end(), 0u);
  // Seeded Fisher-Yates: which keys are popular differs per seed.
  for (std::size_t i = kKeys - 1; i > 0; --i) {
    const std::size_t j = mix(seed, kHotOrder, i) % (i + 1);
    std::swap(key_of_rank_[i], key_of_rank_[j]);
  }
  constexpr double kBase[] = {0.010, 0.020, 0.012, 0.006};
  for (std::size_t key = 0; key < kKeys; ++key) {
    for (std::size_t k = 0; k < 4; ++k) {
      demands_[key].push_back(kBase[k] *
                              (0.8 + 0.4 * unit(seed, kHotDemand, key * 4 + k)));
    }
  }
}

HotCorpus::Op HotCorpus::op(std::uint64_t index) const {
  Op o;
  o.key = key_of_rank_[zipf_.sample(unit(seed_, kHotKey, index))];
  o.depth = kDepths[mix(seed_, kHotDepth, index) % std::size(kDepths)];
  o.series = index % 4 == 3;
  return o;
}

void HotCorpus::render(const Op& op, std::uint64_t id,
                       std::string& out) const {
  out += "{\"id\":";
  append_uint(out, id);
  out += ",\"label\":\"k";
  append_uint(out, op.key);
  out += "\",\"think\":0.5,\"stations\":[{\"name\":\"web/cpu\",\"servers\":4},"
         "{\"name\":\"app/cpu\",\"servers\":8},{\"name\":\"db/cpu\","
         "\"servers\":4},{\"name\":\"db/disk\"}],\"demands\":{\"type\":"
         "\"constant\",\"values\":[";
  const auto& d = demands_[op.key];
  for (std::size_t k = 0; k < d.size(); ++k) {
    append_format(out, k ? ",%.9g" : "%.9g", d[k]);
  }
  out += "]},\"solver\":\"mvasd\",\"max_population\":";
  append_uint(out, op.depth);
  if (op.series) out += ",\"series\":true";
  out += "}\n";
}

PipelineOp pipeline_op(std::uint64_t seed, std::uint64_t index) {
  // VINS and JPetStore alternate; each app sees 3, 5 and 7 nodes in turn.
  static constexpr unsigned kNodes[] = {3, 5, 7, 3, 5, 7};
  PipelineOp op;
  op.vins = index % 2 == 0;
  op.nodes = kNodes[index % 6];
  op.campaign_seed = mix(seed, kCampaign, index);
  return op;
}

}  // namespace perfbench
