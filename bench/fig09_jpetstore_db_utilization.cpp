// Fig. 9 — Utilization of the JPetStore database server predicted via
// MVASD vs the monitored values.
//
// Because MVASD's demands are the splined measured demands, its per-station
// utilization curves (X * D / C) follow the monitors closely all the way
// into saturation.
#include "apps/testbed.hpp"
#include "bench_util.hpp"
#include "core/prediction.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Fig. 9",
                       "JPetStore DB utilization: MVASD prediction vs measured");

  const auto campaign = bench::run_jpetstore_campaign();
  const double think = 1.0;
  const auto spec = core::mvasd_scenario("MVASD", campaign.table, think,
                                         apps::kJPetStoreMaxUsers);
  const auto prediction = core::solve(spec.network, spec.demands, spec.options);

  const auto& table = campaign.table;
  const auto levels = table.concurrency_series();

  TextTable t("DB server utilization % (measured vs MVASD)");
  t.set_header({"Users", "cpu meas", "cpu pred", "disk meas", "disk pred"});
  std::vector<double> cpu_m, cpu_p, disk_m, disk_p;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto row = prediction.row_for(static_cast<unsigned>(levels[i]));
    cpu_m.push_back(table.points()[i].utilization[apps::kDbCpu] * 100.0);
    cpu_p.push_back(prediction.utilization(row, apps::kDbCpu) * 100.0);
    disk_m.push_back(table.points()[i].utilization[apps::kDbDisk] * 100.0);
    disk_p.push_back(prediction.utilization(row, apps::kDbDisk) * 100.0);
    t.add_row({fmt(static_cast<long long>(levels[i])), fmt(cpu_m[i], 1),
               fmt(cpu_p[i], 1), fmt(disk_m[i], 1), fmt(disk_p[i], 1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  AsciiChart chart("DB CPU utilization vs concurrency", "users", "util %");
  chart.add_series({"measured", levels, cpu_m, 'M'});
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < prediction.population.size(); ++i) {
    xs.push_back(prediction.population[i]);
    ys.push_back(prediction.utilization(i, apps::kDbCpu) * 100.0);
  }
  chart.add_series({"MVASD", xs, ys, '*'});
  std::printf("%s\n", chart.render().c_str());

  bench::write_csv("fig09_jpetstore_db_utilization.csv",
                   {"users", "db_cpu_measured", "db_cpu_mvasd",
                    "db_disk_measured", "db_disk_mvasd"},
                   {levels, cpu_m, cpu_p, disk_m, disk_p});

  double worst = 0.0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    worst = std::max({worst, std::abs(cpu_m[i] - cpu_p[i]),
                      std::abs(disk_m[i] - disk_p[i])});
  }
  std::printf("Worst absolute utilization error across DB resources: %.1f "
              "percentage points.\n", worst);
  return 0;
}
