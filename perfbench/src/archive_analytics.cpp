// archive-analytics: the `rovista analyze` query suite streamed off a
// paper-length RVLA archive that the program itself writes.
//
// Set-up is the program's durable write of the archive: one
// RvlaWriter::append per round, each a data fsync plus an atomic head
// swap, as IncrementalConfig::archive_dir does it round by round. It is
// done up to kSetups times: once before the first pass, making the
// archive the passes read, and then once after each pass into a side
// directory. The reported set-up is the archive's row count times the
// median append time over all of these writes: on a shared host a
// burst of slow disk syncs stretches a whole write by up to 3x, but
// moves the median append little. One operation is a pass
// of the suite: latest-cdf, fraction-trend, series for a fixed sample
// of ASes, jumps, churn and the §2 CSV re-publish. Every answer, and
// every re-published file, is compared with answers computed by brute
// force from the benchmark's own matrix.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "analytics/queries.h"
#include "analytics/rvla_io.h"
#include "bench.h"
#include "matrix.h"

namespace perfbench {

using namespace rovista;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kRows = 600;  // ~20 months of daily rounds
constexpr std::size_t kAses = 2000;
constexpr double kPresence = 0.95;  // share of ASes measured per round
constexpr std::size_t kSetups = 9;
constexpr std::size_t kSeriesSample = 8;
// The analyze command's defaults.
constexpr double kThreshold = 100.0;
constexpr double kLow = 0.0;
constexpr double kHigh = 100.0;

using DatedScores = std::vector<std::pair<util::Date, double>>;

/// Brute-force answers from the matrix.
struct Expected {
  std::vector<std::pair<core::Asn, double>> latest;
  DatedScores trend;
  std::vector<std::pair<core::Asn, DatedScores>> series;
  std::vector<std::pair<core::Asn, util::Date>> jumps;
  std::vector<analytics::ChurnRow> churn;
  std::map<std::string, std::string> files;  // published CSV dataset
};

Expected expected_answers(const ScoreMatrix& m, std::uint64_t seed) {
  Expected e;
  const std::size_t rows = m.dates.size();
  for (std::size_t c = 0; c < m.asns.size(); ++c) {
    for (std::size_t r = rows; r-- > 0;) {
      if (m.present(r, c)) {
        e.latest.emplace_back(m.asns[c], m.scores[r][c]);
        break;
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t measured = 0, hit = 0;
    for (std::size_t c = 0; c < m.asns.size(); ++c) {
      if (!m.present(r, c)) continue;
      ++measured;
      if (m.scores[r][c] >= kThreshold) ++hit;
    }
    e.trend.emplace_back(m.dates[r], static_cast<double>(hit) /
                                         static_cast<double>(measured));
  }
  for (std::size_t k = 0; k < kSeriesSample; ++k) {
    const std::size_t c = (seed + k * 251) % m.asns.size();
    DatedScores s;
    for (std::size_t r = 0; r < rows; ++r) {
      if (m.present(r, c)) s.emplace_back(m.dates[r], m.scores[r][c]);
    }
    e.series.emplace_back(m.asns[c], std::move(s));
  }
  for (std::size_t c = 0; c < m.asns.size(); ++c) {
    std::optional<double> last;
    for (std::size_t r = 0; r < rows; ++r) {
      if (!m.present(r, c)) continue;
      if (last.has_value() && *last <= kLow && m.scores[r][c] >= kHigh) {
        e.jumps.emplace_back(m.asns[c], m.dates[r]);
      }
      last = m.scores[r][c];
    }
  }
  for (std::size_t r = 1; r < rows; ++r) {
    analytics::ChurnRow row;
    row.from = m.dates[r - 1];
    row.to = m.dates[r];
    double total = 0.0;
    for (std::size_t c = 0; c < m.asns.size(); ++c) {
      if (!m.present(r, c) || !m.present(r - 1, c)) continue;
      ++row.measured_both;
      if (m.scores[r][c] != m.scores[r - 1][c]) ++row.changed;
      total += std::abs(m.scores[r][c] - m.scores[r - 1][c]);
    }
    row.mean_abs_delta =
        row.measured_both == 0 ? 0.0
                               : total / static_cast<double>(row.measured_both);
    e.churn.push_back(row);
  }
  std::string index = "date,ases_scored\n";
  for (std::size_t r = 0; r < rows; ++r) {
    std::string csv = "asn,score,vvp_count,tnodes_consistent,tnodes_outbound\n";
    std::size_t n = 0;
    for (std::size_t c = 0; c < m.asns.size(); ++c) {
      if (!m.present(r, c)) continue;
      csv += std::to_string(m.asns[c]) + "," + score_text(m.scores[r][c]) +
             ",0,0,0\n";
      ++n;
    }
    e.files["scores-" + m.dates[r].to_string() + ".csv"] = std::move(csv);
    index += m.dates[r].to_string() + "," + std::to_string(n) + "\n";
  }
  e.files["index.csv"] = std::move(index);
  return e;
}

bool same_churn(const std::vector<analytics::ChurnRow>& a,
                const std::vector<analytics::ChurnRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The mean is a float sum; allow for summation order.
    if (a[i].from != b[i].from || a[i].to != b[i].to ||
        a[i].measured_both != b[i].measured_both ||
        a[i].changed != b[i].changed ||
        std::abs(a[i].mean_abs_delta - b[i].mean_abs_delta) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool same_files(const std::string& dir,
                const std::map<std::string, std::string>& expected) {
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto it = expected.find(entry.path().filename().string());
    if (it == expected.end()) return false;
    std::ifstream f(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    if (bytes != it->second) return false;
    ++seen;
  }
  return seen == expected.size();
}

/// Write the pass's re-published files back to disk before the next
/// pass, so that no pass runs into write-back of the one before it.
void flush_files(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

/// The durable write of the whole archive, one append per round;
/// per-append times go to `append_ms`.
void write_archive(const ScoreMatrix& m, const std::string& dir,
                   std::vector<double>& append_ms, Report& report) {
  fs::remove_all(dir);
  std::string error;
  auto writer = analytics::RvlaWriter::create(dir, {}, &error);
  if (!report.check(writer.has_value(), "archive create: " + error)) return;
  for (std::size_t r = 0; r < m.dates.size(); ++r) {
    const analytics::RvlaFrame frame = m.frame(r);
    const auto a0 = Clock::now();
    if (!report.check(writer->append(frame, &error),
                      "archive append: " + error)) {
      return;
    }
    append_ms.push_back(seconds_since(a0) * 1e3);
  }
}

}  // namespace

void run_archive_analytics(const Options& options, Report& report) {
  const bool traced = options.trace;
  const ScoreMatrix matrix = make_matrix(options.seed, kRows, kAses, kPresence);
  const Expected expected = expected_answers(matrix, options.seed);
  const std::string dir = options.work_dir + "/archive";
  if (traced) Tracer::instance().enable();

  std::vector<double> append_ms;
  std::size_t writes = 0;
  Calibration calibration;
  const auto write_once = [&](const std::string& target) {
    calibration.sample();
    Span s("analytics", "analytics.write_archive");
    write_archive(matrix, target, append_ms, report);
    ++writes;
  };
  write_once(dir);
  if (!report.correct()) {
    report.attempt();
    return;
  }
  std::string error;
  const auto info = analytics::archive_info(dir, &error);
  report.check(info.has_value() && info->frames == kRows &&
                   info->date_count == kRows,
               "archive_info after the write: " + error);
  const double frame_kb =
      info.has_value() ? static_cast<double>(info->data_bytes) / kRows / 1024.0
                       : 0.0;

  // Every pass re-publishes over the same files, as a daily re-publish
  // of one dataset directory does.
  const std::string out = options.work_dir + "/published";
  std::vector<double> pass_s, traced_pass_s, untraced_pass_s;
  const auto start = Clock::now();
  double side_writes_s = 0.0;  // not pass time
  // Whole passes until the run's time is up. A traced run alternates
  // untraced and traced passes to measure the tracing overhead.
  for (std::size_t pass = 0;
       seconds_since(start) - side_writes_s < options.seconds ||
       (traced && pass < 2);
       ++pass) {
    const bool trace_this = traced && pass % 2 == 1;
    calibration.sample();
    if (traced) {
      if (trace_this) {
        Tracer::instance().enable();
      } else {
        Tracer::instance().disable();
      }
    }
    std::optional<std::vector<std::pair<core::Asn, double>>> latest;
    std::optional<DatedScores> trend;
    std::vector<std::optional<DatedScores>> series;
    std::optional<std::vector<std::pair<core::Asn, util::Date>>> jumps;
    std::optional<std::vector<analytics::ChurnRow>> churn;
    std::optional<std::size_t> published;
    const auto p0 = Clock::now();
    {
      Span suite("bench", "analytics.suite");
      {
        Span s("analytics", "analytics.latest_cdf");
        latest = analytics::latest_scores(dir, &error);
        if (latest.has_value()) analytics::latest_cdf_csv(*latest);
      }
      {
        Span s("analytics", "analytics.fraction_trend");
        trend = analytics::fraction_trend(dir, kThreshold, &error);
      }
      {
        Span s("analytics", "analytics.series");
        for (const auto& [asn, unused] : expected.series) {
          series.push_back(analytics::as_series(dir, asn, &error));
        }
      }
      {
        Span s("analytics", "analytics.jumps");
        jumps = analytics::score_jumps(dir, kLow, kHigh, &error);
      }
      {
        Span s("analytics", "analytics.churn");
        churn = analytics::churn(dir, &error);
      }
      {
        Span s("analytics", "analytics.publish");
        published = analytics::publish_archive(dir, out, &error);
      }
    }
    const double elapsed = seconds_since(p0);
    pass_s.push_back(elapsed);
    (trace_this ? traced_pass_s : untraced_pass_s).push_back(elapsed);

    {
      Span s("bench", "bench.check_suite");
      report.attempt();
      const std::string label = "suite pass " + std::to_string(pass) + ": ";
      bool ok = report.check(latest.has_value() && *latest == expected.latest,
                             label + "latest-cdf");
      ok &= report.check(trend.has_value() && *trend == expected.trend,
                         label + "fraction-trend");
      for (std::size_t k = 0; k < series.size(); ++k) {
        ok &= report.check(
            series[k].has_value() && *series[k] == expected.series[k].second,
            label + "series of AS " + std::to_string(expected.series[k].first));
      }
      ok &= report.check(jumps.has_value() && *jumps == expected.jumps,
                         label + "jumps");
      ok &= report.check(
          churn.has_value() && same_churn(*churn, expected.churn),
          label + "churn");
      ok &= report.check(published.has_value() && *published == kRows &&
                             same_files(out, expected.files),
                         label + "re-published CSV dataset");
      if (!ok) report.fail();
      flush_files(out);
    }
    if (writes < kSetups) {
      const auto w0 = Clock::now();
      write_once(options.work_dir + "/archive-side");
      side_writes_s += seconds_since(w0);
    }
  }
  Tracer::instance().disable();

  if (!traced) {
    double total = 0.0;
    for (const double p : pass_s) total += p;
    report_end_to_end(report, calibration,
                      static_cast<double>(kRows) * median(append_ms) / 1e3,
                      median(pass_s) * 1e3,
                      static_cast<double>(pass_s.size()) / total);
    return;
  }
  LayerValues values;
  {
    Tracer::instance().enable();
    Span s("analytics", "analytics.decode");
    auto cursor = analytics::RvlaCursor::open(dir, &error);
    std::size_t frames = 0;
    while (cursor.has_value() && cursor->next().has_value()) ++frames;
    report.check(frames == kRows, "cursor walk frame count");
  }
  Tracer::instance().disable();
  values["analytics.decode_s"] = span_median("analytics.decode");
  values["analytics.latest_cdf_s"] = span_median("analytics.latest_cdf");
  values["analytics.fraction_trend_s"] = span_median("analytics.fraction_trend");
  values["analytics.series_s"] = span_median("analytics.series");
  values["analytics.jumps_s"] = span_median("analytics.jumps");
  values["analytics.churn_s"] = span_median("analytics.churn");
  values["analytics.publish_s"] = span_median("analytics.publish");
  values["analytics.append_ms"] = median(append_ms);
  values["analytics.frame_kb"] = frame_kb;
  report_layers(report, values,
                median(traced_pass_s) / median(untraced_pass_s), calibration);
}

}  // namespace perfbench
