// monthly-series: IncrementalLongitudinalRunner over rounds 30 days
// apart, with RVCP checkpoints and the RVLA archive on, as `rovista
// longitudinal --threads N --checkpoint-dir D --archive A` runs it, on
// kSeries generated worlds whose rounds are taken in turn.
//
// Set-up is runner construction plus the first, cold round; every later
// round is one operation. Each series runs kRoundsPerSeries warm rounds
// and is then built anew, so a run measures one fixed cycle of
// (world, date) rounds whatever the program's speed: a faster program
// repeats the cycle rather than reaching other dates. A traced run also
// feeds a shadow EpochPublisher the same dates, so that scenario
// advance, routing
// convergence, epoch publish and digest, and discovery can be timed
// around their own public calls (the runner does all of these inside
// run_round, where the benchmark cannot see them).
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "analytics/queries.h"
#include "bench.h"
#include "core/incremental_runner.h"
#include "core/publish.h"
#include "rounds.h"
#include "snapshot/world_source.h"

namespace perfbench {

using namespace rovista;
namespace fs = std::filesystem;

namespace {

constexpr int kIntervalDays = 30;
// Series start four months into the scenario window, so their rounds
// fall in the mid-2022 surge of invalid announcements.
constexpr int kStartOffsetDays = 120;
// Series (worlds) per run, taken in turn: the run's median round then
// spans several worlds rather than resting on one.
constexpr std::size_t kSeries = 6;
// Warm rounds per series before it is built anew. The cycle of
// kSeries x kRoundsPerSeries rounds takes about 15 s on the reference
// host, so every run measures all of it at least once.
constexpr int kRoundsPerSeries = 4;

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::map<std::string, std::string> read_tree(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream f(e.path(), std::ios::binary);
    files[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

/// Checks of one round's report: the pair accounting, and the round
/// against truth on the epoch the round was measured on. Returns false
/// if any check failed.
bool check_report(Report& report, core::IncrementalLongitudinalRunner& runner,
                  const core::RoundReport& r, const std::string& label) {
  bool ok = report.check(r.executed_pairs + r.reused_pairs == r.total_pairs,
                         label + ": executed + reused != total pairs");
  ok &= report.check(
      r.total_pairs == runner.vvps().size() * runner.tnodes().size(),
      label + ": total pairs != vVPs x tNodes");
  snapshot::EpochRef epoch = runner.publisher().current();
  if (!report.check(static_cast<bool>(epoch) && epoch->date() == r.date,
                    label + ": no epoch published for the round")) {
    return false;
  }
  snapshot::EpochReader truth(std::move(epoch));
  return check_round(report, label, truth.plane(), r.round, runner.vvps(),
                     runner.tnodes()) &&
         ok;
}

/// The traced run's shadow: the same dates through the layers' public
/// calls, one span each.
struct Shadow {
  explicit Shadow(const scenario::ScenarioParams& params, int threads)
      : publisher(params), config(round_config(threads)) {}

  void round(util::Date date, bool discovery_reused) {
    {
      Span s("scenario", "scenario.advance");
      publisher.advance_to(date);
    }
    auto& routing = publisher.world().routing();
    {
      Span s("bgp", "bgp.converge");
      for (const auto& prefix : routing.all_prefixes()) routing.routes_for(prefix);
    }
    cached_prefixes.push_back(static_cast<double>(routing.cached_prefixes()));
    snapshot::EpochRef epoch;
    {
      Span s("snapshot", "snapshot.publish");
      epoch = publisher.publish();
    }
    {
      Span s("snapshot", "snapshot.digest");
      digest_ok &= epoch->recompute_digest() == epoch->digest();
    }
    if (discovery_reused) return;
    // Discovery as the runner does it when it cannot reuse: on a reader
    // of the round's epoch.
    snapshot::EpochReader reader(epoch);
    core::Rovista rovista(reader.plane(), reader.client_a(), reader.client_b(),
                          config);
    bgp::CollectorSnapshot view;
    {
      Span s("bgp", "bgp.collector_snapshot");
      view = publisher.world().collector().snapshot(epoch->shared_routing());
    }
    const auto& world = publisher.world();
    {
      Span s("scan", "scan.tnode_discovery");
      tnodes.push_back(static_cast<double>(
          rovista
              .acquire_tnodes(view, world.current_vrps(),
                              world.rov_reference_ases(date, 10),
                              world.non_rov_reference_ases(date, 10))
              .size()));
    }
    {
      Span s("scan", "scan.vvp_discovery");
      vvps.push_back(static_cast<double>(
          rovista.acquire_vvps(world.vvp_candidates()).size()));
    }
  }

  snapshot::EpochPublisher publisher;
  core::RovistaConfig config;
  std::vector<double> cached_prefixes, tnodes, vvps;
  bool digest_ok = true;
};

struct Series {
  core::IncrementalConfig config;
  std::unique_ptr<core::IncrementalLongitudinalRunner> runner;
  std::string label;

  util::Date date(int i) const {
    const util::Date d =
        config.params.start + kStartOffsetDays + i * kIntervalDays;
    // A later date would be clamped to the scenario end and repeat it.
    if (d > config.params.end) {
      throw std::logic_error("series round " + std::to_string(i) +
                             " falls after the scenario end");
    }
    return d;
  }
};

/// The archive = store contract: the CSV dataset re-published from the
/// series' RVLA archive byte-equals core::publish_scores on the
/// runner's store.
void check_archive(Report& report, const Series& s, const std::string& dir) {
  const std::string from_store = dir + "/published-store";
  const std::string from_archive = dir + "/published-archive";
  std::optional<std::size_t> written;
  {
    Span span("core", "core.publish");
    written = core::publish_scores(s.runner->store(), from_store);
  }
  std::string error;
  const auto republished =
      analytics::publish_archive(s.config.archive_dir, from_archive, &error);
  report.check(written.has_value() && republished.has_value() &&
                   *written == *republished &&
                   *written == s.runner->store().dates().size(),
               "publish_archive / publish_scores failed: " + error);
  report.check(read_tree(from_store) == read_tree(from_archive),
               "publish_archive output differs from publish_scores");
  fs::remove_all(from_store);
  fs::remove_all(from_archive);
}

}  // namespace

void run_monthly_series(const Options& options, Report& report) {
  const bool traced = options.trace;
  const int threads = round_threads();

  // One series per world. Set-up is a runner's construction plus its
  // first, cold round, timed each time a series is (re)built.
  std::vector<Series> series(kSeries);
  std::vector<double> setup_s;
  Calibration calibration;
  const auto start_series = [&](std::size_t k) {
    Series& s = series[k];
    s.runner.reset();
    fs::remove_all(s.config.checkpoint_dir);
    fs::remove_all(s.config.archive_dir);
    calibration.sample();
    const auto t0 = Clock::now();
    s.runner = std::make_unique<core::IncrementalLongitudinalRunner>(s.config);
    const core::RoundReport first = s.runner->run_round(s.date(0));
    setup_s.push_back(seconds_since(t0));
    report.attempt();
    if (!check_report(report, *s.runner, first, s.label + "0")) report.fail();
  };
  for (std::size_t k = 0; k < kSeries; ++k) {
    Series& s = series[k];
    s.config.params = round_world(world_seed(options.seed, k));
    s.config.rovista = round_config(threads);
    s.config.checkpoint_dir =
        options.work_dir + "/checkpoint-" + std::to_string(k);
    s.config.archive_dir = options.work_dir + "/archive-" + std::to_string(k);
    s.label = "series " + std::to_string(k) + " round ";
    start_series(k);
  }

  std::unique_ptr<Shadow> shadow;
  if (traced) {
    shadow = std::make_unique<Shadow>(series[0].config.params, threads);
  }

  // Round times by cycle entry (series k, round i), over the run's
  // repetitions of the cycle.
  std::vector<std::vector<double>> entry_s(kSeries * kRoundsPerSeries);
  std::vector<double> traced_round_s, untraced_round_s;
  std::map<std::string, double> sums;
  double discovery_reused_rounds = 0.0;
  const auto start = Clock::now();
  // Whole laps (one round of every series) until the run's time is up,
  // and at least the whole cycle once. A traced run traces every other
  // round of each series, so the tracing overhead is measured in the
  // same process on the same worlds; the shadow follows series 0
  // through the first cycle, and the incremental.* counts are sums over
  // that cycle.
  for (int lap = 0;
       lap < kRoundsPerSeries || seconds_since(start) < options.seconds;
       ++lap) {
    const int i = lap % kRoundsPerSeries + 1;
    const bool first_cycle = lap < kRoundsPerSeries;
    if (i == 1 && !first_cycle) {
      if (traced) Tracer::instance().enable();
      for (std::size_t k = 0; k < kSeries; ++k) {
        check_archive(report, series[k], options.work_dir);
      }
      Tracer::instance().disable();
      for (std::size_t k = 0; k < kSeries; ++k) start_series(k);
    }
    for (std::size_t k = 0; k < kSeries; ++k) {
      Series& s = series[k];
      const util::Date date = s.date(i);
      const bool trace_this =
          traced && (static_cast<std::size_t>(lap) + k) % 2 == 1;
      calibration.sample();
      if (trace_this) Tracer::instance().enable();
      core::RoundReport r;
      const auto r0 = Clock::now();
      {
        Span span("incremental", "incremental.run_round");
        r = s.runner->run_round(date);
      }
      const double elapsed = seconds_since(r0);
      entry_s[k * kRoundsPerSeries + (i - 1)].push_back(elapsed);
      (trace_this ? traced_round_s : untraced_round_s).push_back(elapsed);
      if (traced && k == 0 && first_cycle) {
        if (!trace_this) Tracer::instance().enable();
        shadow->round(date, r.discovery_reused);
        {
          Span span("persist", "persist.checkpoint");
          report.check(s.runner->write_checkpoint(), "checkpoint write failed");
        }
        if (!trace_this) Tracer::instance().disable();
      }
      if (trace_this) Tracer::instance().disable();
      if (first_cycle) {
        sums["incremental.executed_pairs"] +=
            static_cast<double>(r.executed_pairs);
        sums["incremental.reused_pairs"] += static_cast<double>(r.reused_pairs);
        sums["incremental.total_pairs"] += static_cast<double>(r.total_pairs);
        sums["incremental.dirty_rows"] += static_cast<double>(r.dirty_rows);
        sums["incremental.dirty_prefixes"] +=
            static_cast<double>(r.dirty_prefix_count);
        if (r.discovery_reused) discovery_reused_rounds += 1.0;
      }
      report.attempt();
      if (!check_report(report, *s.runner, r, s.label + std::to_string(i))) {
        report.fail();
      }
    }
  }

  if (traced) Tracer::instance().enable();
  for (std::size_t k = 0; k < kSeries; ++k) {
    check_archive(report, series[k], options.work_dir);
  }
  Tracer::instance().disable();
  const double checkpoint_kb =
      static_cast<double>(directory_bytes(series[0].config.checkpoint_dir)) /
      1024.0;
  series.clear();

  if (!traced) {
    // Each cycle entry counts once, at its median time, so the figures
    // describe the same rounds however many repetitions a run holds.
    std::vector<double> round_s;
    double total = 0.0;
    for (const auto& samples : entry_s) {
      round_s.push_back(median(samples));
      total += round_s.back();
    }
    report_end_to_end(report, calibration, median(setup_s),
                      median(round_s) * 1e3,
                      static_cast<double>(round_s.size()) / total);
    return;
  }
  report.check(shadow->digest_ok, "recompute_digest != digest");
  LayerValues values = sums;
  values["incremental.reused_share"] =
      sums["incremental.total_pairs"] > 0.0
          ? sums["incremental.reused_pairs"] / sums["incremental.total_pairs"]
          : 0.0;
  values["incremental.discovery_reused_rounds"] = discovery_reused_rounds;
  values["scenario.advance_ms"] = span_median("scenario.advance", 1e3);
  values["bgp.converge_s"] = span_median("bgp.converge");
  values["bgp.cached_prefixes"] = median(shadow->cached_prefixes);
  values["snapshot.publish_s"] = span_median("snapshot.publish");
  values["snapshot.digest_ms"] = span_median("snapshot.digest", 1e3);
  values["scan.tnode_discovery_s"] = span_median("scan.tnode_discovery");
  values["scan.vvp_discovery_s"] = span_median("scan.vvp_discovery");
  values["scan.tnodes"] = median(shadow->tnodes);
  values["scan.vvps"] = median(shadow->vvps);
  values["persist.checkpoint_ms"] = span_median("persist.checkpoint", 1e3);
  values["persist.checkpoint_kb"] = checkpoint_kb;
  values["core.publish_ms"] = span_median("core.publish", 1e3);
  report_layers(report, values,
                median(traced_round_s) / median(untraced_round_s), calibration);
}

}  // namespace perfbench
