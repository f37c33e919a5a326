// Ablation — which interpolation family should feed MVASD?
//
// Runs MVASD over the JPetStore campaign with the demand arrays produced by
// linear interpolation, natural / not-a-knot cubic splines, monotone PCHIP,
// and smoothing splines, and compares prediction deviations.  The paper
// uses Scilab's cubic splines; this bench quantifies how much that choice
// matters.
#include <memory>

#include "bench_util.hpp"
#include "core/prediction.hpp"
#include "core/solve.hpp"
#include "interp/linear.hpp"
#include "interp/pchip.hpp"
#include "interp/smoothing_spline.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Ablation", "Interpolation family feeding MVASD");

  const auto campaign = bench::run_jpetstore_campaign();
  const double think = 1.0;
  const unsigned max_users = apps::kJPetStoreMaxUsers;
  const auto& table = campaign.table;
  const std::size_t k_count = table.stations().size();
  const auto network = core::network_from_table(table, think);

  using Builder = std::function<std::shared_ptr<const interp::Interpolator1D>(
      const interp::SampleSet&)>;
  const std::vector<std::pair<std::string, Builder>> families{
      {"linear",
       [](const interp::SampleSet& s) {
         return std::make_shared<interp::PiecewiseCubic>(interp::build_linear(s));
       }},
      {"cubic natural",
       [](const interp::SampleSet& s) {
         interp::CubicSplineOptions opt;
         opt.boundary = interp::SplineBoundary::kNatural;
         return std::make_shared<interp::PiecewiseCubic>(
             interp::build_cubic_spline(s, opt));
       }},
      {"cubic not-a-knot (paper)",
       [](const interp::SampleSet& s) {
         return std::make_shared<interp::PiecewiseCubic>(
             interp::build_cubic_spline(s));
       }},
      {"pchip",
       [](const interp::SampleSet& s) {
         return std::make_shared<interp::PiecewiseCubic>(interp::build_pchip(s));
       }},
      {"smoothing (lambda=10)",
       [](const interp::SampleSet& s) {
         return std::make_shared<interp::PiecewiseCubic>(
             interp::build_smoothing_spline(s, 10.0));
       }},
  };

  TextTable dev("MVASD deviation by demand-interpolation family (Eq. 15)");
  dev.set_header({"Family", "Throughput dev %", "Cycle time dev %"});
  for (const auto& [name, build] : families) {
    std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants;
    for (std::size_t k = 0; k < k_count; ++k) {
      interpolants.push_back(build(table.demand_vs_concurrency(k)));
    }
    const auto model = core::DemandModel::interpolated(std::move(interpolants));
    const auto result =
        core::solve(network, model, {core::SolverKind::kMvasd, max_users});
    const auto report =
        core::deviation_against_measurements(name, result, table, think);
    dev.add_row({name, fmt(report.throughput_deviation_pct, 2),
                 fmt(report.cycle_time_deviation_pct, 2)});
  }
  std::printf("%s\n", dev.to_string().c_str());
  std::printf(
      "All smooth families land close together on densely sampled demands —\n"
      "the value of splines over linear interpolation grows as the number of\n"
      "measured points shrinks (see fig12/fig14-16 for the sparse case).\n");
  return 0;
}
