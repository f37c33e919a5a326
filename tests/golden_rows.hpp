// Golden bits of MvaResult rows, shared by the suites that pin a solver's
// output: at chosen population levels, the system throughput X, response
// time R and cycle time Z plus every station's queue Q, utilization U and
// residence (and, for a multiclass result, every class's X and R and every
// class-station queue), compared with EXPECT_EQ against hex-float literals.
//
// A case whose literal list is empty fails and prints this build's
// literals in paste-ready form.  That is how a new case is captured, and
// how a case is regenerated on a toolchain whose libm or code generation
// moves the last bits (never by loosening a comparison).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/result.hpp"

namespace mtperf::golden {

/// {X, R, Z, Q_0..Q_{K-1}, U_0..U_{K-1}, residence_0..residence_{K-1}} of
/// one result row; a multiclass result appends X_0..X_{C-1},
/// R_0..R_{C-1} and the class-station queues Q_{c,k} at c * K + k.
inline std::vector<double> row_values(const core::MvaResult& r,
                                      std::size_t row) {
  std::vector<double> v = {r.throughput[row], r.response_time[row],
                           r.cycle_time[row]};
  for (std::size_t k = 0; k < r.stations(); ++k) v.push_back(r.queue(row, k));
  for (std::size_t k = 0; k < r.stations(); ++k) {
    v.push_back(r.utilization(row, k));
  }
  for (std::size_t k = 0; k < r.stations(); ++k) {
    v.push_back(r.residence(row, k));
  }
  for (std::size_t c = 0; c < r.classes(); ++c) v.push_back(r.class_x(row, c));
  for (std::size_t c = 0; c < r.classes(); ++c) v.push_back(r.class_r(row, c));
  for (std::size_t c = 0; c < r.classes(); ++c) {
    for (std::size_t k = 0; k < r.stations(); ++k) {
      v.push_back(r.class_queue(row, c, k));
    }
  }
  return v;
}

/// Name of entry i of row_values for a result with k_count stations and
/// c_count classes.
inline std::string field_name(std::size_t i, std::size_t k_count,
                              std::size_t c_count) {
  if (i < 3) return i == 0 ? "X" : i == 1 ? "R" : "Z";
  i -= 3;
  if (i < 3 * k_count) {
    const char* kinds[] = {"Q", "U", "residence"};
    return std::string(kinds[i / k_count]) + " of station " +
           std::to_string(i % k_count);
  }
  i -= 3 * k_count;
  if (i < 2 * c_count) {
    return std::string(i < c_count ? "X" : "R") + " of class " +
           std::to_string(i % c_count);
  }
  i -= 2 * c_count;
  return "Q of class " + std::to_string(i / k_count) + " at station " +
         std::to_string(i % k_count);
}

/// Compare `r` at populations `levels` against `golden` (one row_values
/// list per level), bit for bit.  The printed literals of a multiclass
/// result also give its mc_iterations, which the caller pins itself.
inline void expect_rows(const core::MvaResult& r,
                        const std::vector<unsigned>& levels,
                        const std::vector<std::vector<double>>& golden) {
  if (golden.empty()) {
    std::ostringstream out;
    out << std::hexfloat;
    for (const unsigned n : levels) {
      const std::vector<double> v = row_values(r, r.row_for(n));
      out << "{";
      for (std::size_t i = 0; i < v.size(); ++i) {
        out << (i == 0 ? "" : i % 3 == 0 ? ",\n " : ", ") << v[i];
      }
      out << "},\n";
    }
    if (r.classes() > 0) out << "mc_iterations: " << r.mc_iterations << "\n";
    ADD_FAILURE() << "no golden literals; this build's are:\n" << out.str();
    return;
  }
  ASSERT_EQ(golden.size(), levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    SCOPED_TRACE("population " + std::to_string(levels[l]));
    const std::vector<double> v = row_values(r, r.row_for(levels[l]));
    ASSERT_EQ(v.size(), golden[l].size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i], golden[l][i])
          << field_name(i, r.stations(), r.classes());
    }
  }
}

/// Compare a single-class utilization-only result (StationRows::
/// kUtilization) at populations `levels` against the literals expect_rows
/// takes for the same solve with every row: X, R, Z and every station's U,
/// bit for bit (the literals' Q and residence entries have no counterpart).
inline void expect_lean_rows(const core::MvaResult& r,
                             const std::vector<unsigned>& levels,
                             const std::vector<std::vector<double>>& golden) {
  ASSERT_EQ(r.station_rows, core::StationRows::kUtilization);
  ASSERT_EQ(r.classes(), 0u);
  ASSERT_EQ(golden.size(), levels.size());
  const std::size_t k_count = r.stations();
  for (std::size_t l = 0; l < levels.size(); ++l) {
    SCOPED_TRACE("population " + std::to_string(levels[l]));
    const std::size_t row = r.row_for(levels[l]);
    ASSERT_EQ(golden[l].size(), 3 + 3 * k_count);
    EXPECT_EQ(r.throughput[row], golden[l][0]) << "X";
    EXPECT_EQ(r.response_time[row], golden[l][1]) << "R";
    EXPECT_EQ(r.cycle_time[row], golden[l][2]) << "Z";
    for (std::size_t k = 0; k < k_count; ++k) {
      const std::size_t i = 3 + k_count + k;
      EXPECT_EQ(r.utilization(row, k), golden[l][i])
          << field_name(i, k_count, 0);
    }
  }
}

/// Compare a marginal trace (rows[n-1][j] = P(j | n)) at populations
/// `levels` against `golden` (one P(0..C-1) list per level), bit for bit.
inline void expect_trace_rows(const std::vector<std::vector<double>>& rows,
                              const std::vector<unsigned>& levels,
                              const std::vector<std::vector<double>>& golden) {
  if (golden.empty()) {
    std::ostringstream out;
    out << std::hexfloat;
    for (const unsigned n : levels) {
      const std::vector<double>& v = rows.at(n - 1);
      out << "{";
      for (std::size_t i = 0; i < v.size(); ++i) {
        out << (i == 0 ? "" : i % 3 == 0 ? ",\n " : ", ") << v[i];
      }
      out << "},\n";
    }
    ADD_FAILURE() << "no golden literals; this build's are:\n" << out.str();
    return;
  }
  ASSERT_EQ(golden.size(), levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    SCOPED_TRACE("population " + std::to_string(levels[l]));
    const std::vector<double>& v = rows.at(levels[l] - 1);
    ASSERT_EQ(v.size(), golden[l].size());
    for (std::size_t j = 0; j < v.size(); ++j) {
      EXPECT_EQ(v[j], golden[l][j]) << "P(" << j << ")";
    }
  }
}

}  // namespace mtperf::golden
