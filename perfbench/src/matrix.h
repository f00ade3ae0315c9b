// The generated score matrix behind serve-queries and archive-analytics:
// paper-length daily rounds (20 months) over ~2k ASes, with per-AS
// scores that mostly hold and occasionally jump, as RoVista's series
// do. Everything the two workloads check their answers against is
// computed from this matrix, apart from the program.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analytics/rvla.h"
#include "util/date.h"

namespace perfbench {

struct ScoreMatrix {
  std::vector<rovista::util::Date> dates;    // one row per date, ascending
  std::vector<std::uint32_t> asns;           // ascending
  // scores[row][column]; NaN where the AS was not measured that date.
  std::vector<std::vector<double>> scores;

  bool present(std::size_t row, std::size_t col) const {
    return !std::isnan(scores[row][col]);
  }
  /// The row as an RVLA frame (present ASes only).
  rovista::analytics::RvlaFrame frame(std::size_t row) const;
};

/// `rows` daily dates from 2021-12-24 over `ases` ASes. Each AS is
/// measured on a date with probability `presence`; scores are
/// multiples of 100/24 rounded to two decimals, so the published CSV
/// text round-trips them exactly.
ScoreMatrix make_matrix(std::uint64_t seed, std::size_t rows, std::size_t ases,
                        double presence);

/// Scores as core::publish_scores writes them.
std::string score_text(double score);

}  // namespace perfbench
