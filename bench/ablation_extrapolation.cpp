// Ablation — model-based prediction (MVASD) vs black-box curve-fitting
// extrapolation (the Perfext-style baseline of the paper's related work).
//
// Both methods see only the low-concurrency half of the JPetStore campaign
// and must predict the rest.  Curve fitting extrapolates the throughput
// series directly; MVASD extrapolates the *demands* (pegged splines) and
// recomputes the queueing.  The structural model wins where it matters —
// past the measured range.
#include "bench_util.hpp"
#include "core/extrapolation.hpp"
#include "core/prediction.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Ablation",
                       "MVASD vs curve-fitting extrapolation (JPetStore)");

  const auto full = bench::run_jpetstore_campaign();
  const double think = 1.0;
  const double pages = static_cast<double>(full.pages_per_transaction);

  // Training view: only levels 1..70 (pre-saturation!).
  const auto app = apps::make_jpetstore();
  const std::vector<unsigned> train_levels{1, 14, 28, 70};
  const auto train =
      workload::run_campaign(app, train_levels, bench::standard_settings());

  // Model-based: MVASD from the truncated campaign.
  const auto spec = core::mvasd_scenario("MVASD", train.table, think,
                                         apps::kJPetStoreMaxUsers);
  const auto mvasd = core::solve(spec.network, spec.demands, spec.options);

  // Black-box: fit the measured throughput series, extrapolate.
  std::vector<double> tx = train.table.concurrency_series();
  std::vector<double> ty;
  for (const auto& p : train.table.points()) ty.push_back(p.throughput);
  const auto holdout = full.table.concurrency_series();
  const auto fit = core::extrapolate_throughput(tx, ty, holdout);

  TextTable t("Predicted throughput (pages/s) from 4 pre-saturation tests");
  t.set_header({"Users", "Measured", "MVASD", "Curve fit"});
  std::vector<double> measured, mvasd_pred, fit_pred;
  for (std::size_t i = 0; i < holdout.size(); ++i) {
    measured.push_back(full.table.points()[i].throughput * pages);
    mvasd_pred.push_back(mvasd.throughput_at({holdout[i]})[0] * pages);
    fit_pred.push_back(fit.predictions[i] * pages);
    t.add_row({fmt(holdout[i], 0), fmt(measured[i], 1),
               fmt(mvasd_pred[i], 1), fmt(fit_pred[i], 1)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Curve-fit family chosen: %s\n\n",
              fit.used_sigmoid ? "sigmoid (saturating)" : "linear (rising)");

  TextTable dev("Deviation over the full measured range (Eq. 15)");
  dev.set_header({"Method", "Throughput dev %"});
  dev.add_row({"MVASD (demand extrapolation)",
               fmt(mean_percent_deviation(mvasd_pred, measured), 2)});
  dev.add_row({"Curve fit (series extrapolation)",
               fmt(mean_percent_deviation(fit_pred, measured), 2)});
  std::printf("%s\n", dev.to_string().c_str());

  bench::write_csv("ablation_extrapolation.csv",
                   {"users", "measured", "mvasd", "curvefit"},
                   {holdout, measured, mvasd_pred, fit_pred});
  std::printf(
      "With only pre-saturation data, the series extrapolator must guess the\n"
      "ceiling from curvature it has barely seen; MVASD derives the ceiling\n"
      "from the measured demands and the queueing model.\n");
  return 0;
}
