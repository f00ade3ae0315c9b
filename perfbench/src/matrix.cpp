#include "matrix.h"

#include <cstdio>
#include <limits>
#include <random>
#include <set>

namespace perfbench {

using namespace rovista;

std::string score_text(double score) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", score);
  return buf;
}

analytics::RvlaFrame ScoreMatrix::frame(std::size_t row) const {
  analytics::RvlaFrame f;
  f.date = dates[row];
  for (std::size_t c = 0; c < asns.size(); ++c) {
    if (!present(row, c)) continue;
    f.asns.push_back(asns[c]);
    f.scores.push_back(scores[row][c]);
  }
  return f;
}

ScoreMatrix make_matrix(std::uint64_t seed, std::size_t rows, std::size_t ases,
                        double presence) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  ScoreMatrix m;
  const util::Date first = util::Date::from_ymd(2021, 12, 24);
  for (std::size_t r = 0; r < rows; ++r) {
    m.dates.push_back(first + static_cast<int>(r));
  }
  std::set<std::uint32_t> asns;
  std::uniform_int_distribution<std::uint32_t> asn_dist(1, 400000);
  while (asns.size() < ases) asns.insert(asn_dist(rng));
  m.asns.assign(asns.begin(), asns.end());

  std::vector<double> levels;
  for (int k = 0; k <= 24; ++k) {
    levels.push_back(std::stod(score_text(100.0 * k / 24.0)));
  }
  std::uniform_int_distribution<std::size_t> level(0, levels.size() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> current(ases);
  for (double& s : current) s = levels[level(rng)];
  m.scores.assign(rows, std::vector<double>(ases));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < ases; ++c) {
      // ~3% of ASes change level per round; extremes are common, so the
      // §7.3 jump query (<= 10 to >= 90) has answers.
      if (unit(rng) < 0.03) {
        const double u = unit(rng);
        current[c] = u < 0.3   ? levels.front()
                     : u < 0.6 ? levels.back()
                               : levels[level(rng)];
      }
      m.scores[r][c] = unit(rng) < presence
                           ? current[c]
                           : std::numeric_limits<double>::quiet_NaN();
    }
  }
  return m;
}

}  // namespace perfbench
