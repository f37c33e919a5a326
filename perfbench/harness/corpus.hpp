// Seeded input generators for the three benchmark workloads.  Every input
// is a pure function of (seed, index): the same seed renders byte-identical
// request lines, so a run can generate requests on the fly instead of
// holding the whole timed phase in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64 finalizer over (seed, stream, index): independent uniform
/// streams without any generator state.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

/// Uniform in [0, 1) from the top 53 bits of mix().
double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup: rank r is drawn with
/// probability proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(double u) const;
  double probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

// --- serve-cold-whatif -----------------------------------------------------

/// The four structure families of cold traffic.
enum class Family {
  kMvasdFleet,      ///< 12-station spline fleet, mvasd to N=1500
  kSchweitzerMix,   ///< three-class mix on the fleet, schweitzer-multiclass
  kMomMix,          ///< three-class mix on a small network, mom-multiclass
  kHierarchical,    ///< 30-service tiered workmodel, one tier edited
};
inline constexpr std::size_t kFamilies = 4;

/// Every cold request is a distinct what-if: demands are drawn from the
/// (seed, index) stream, so no two indices share a fingerprint.  Families
/// follow a fixed cycle, so each seed carries the same structure mix.
class ColdCorpus {
 public:
  explicit ColdCorpus(std::uint64_t seed) : seed_(seed) {}

  /// Requests 0..kPriming-1 prime the server; the timed phase continues
  /// from there.
  static constexpr std::size_t kPriming = 96;

  Family family(std::uint64_t index) const;
  /// Append request `index` as one '\n'-terminated line carrying "id".
  void render(std::uint64_t index, std::uint64_t id, std::string& out) const;

 private:
  std::uint64_t seed_;
};

// --- serve-hot-zipf --------------------------------------------------------

/// Zipf-popular keys of one small 4-station network.  A key is a demand
/// vector; an op asks for one key at one depth, a quarter of them with the
/// full series.
class HotCorpus {
 public:
  static constexpr std::size_t kKeys = 1024;  ///< twice the cache capacity
  static constexpr double kZipfS = 1.0;
  static constexpr unsigned kDepths[] = {60, 120, 180, 240};
  static constexpr unsigned kDeepest = 240;

  explicit HotCorpus(std::uint64_t seed);

  struct Op {
    std::uint32_t key = 0;
    unsigned depth = 0;
    bool series = false;
  };
  Op op(std::uint64_t index) const;

  /// Append one '\n'-terminated request line for key/depth/series.
  void render(const Op& op, std::uint64_t id, std::string& out) const;

 private:
  std::uint64_t seed_;
  Zipf zipf_;
  std::vector<std::uint32_t> key_of_rank_;  ///< seeded popularity order
  std::vector<std::vector<double>> demands_;
};

// --- pipeline-chebyshev ----------------------------------------------------

/// One paper-pipeline op: which app, how many Chebyshev nodes, which
/// campaign seed.
struct PipelineOp {
  bool vins = true;
  unsigned nodes = 3;
  std::uint64_t campaign_seed = 0;
};

/// Ops cycle VINS/JPetStore x {3, 5, 7} nodes in a fixed order; the seed
/// picks the campaign seeds.
PipelineOp pipeline_op(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
