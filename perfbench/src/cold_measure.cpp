// cold-measure: the `rovista measure --threads N` pipeline from nothing,
// repeated on fresh worlds until the run's time is up.
//
// Set-up of one round is the world build up to converged routing
// (Scenario construction, advance to the measurement date, every
// announced prefix's routes computed). The round itself is what the
// measure command does next: collector snapshot and tNode discovery,
// vVP discovery, the measurement factory (second world build and
// freeze), pair measurement on N workers, scoring and CSV publish.
#include <filesystem>
#include <map>
#include <memory>

#include "bench.h"
#include "core/publish.h"
#include "rounds.h"
#include "snapshot/world_source.h"

namespace perfbench {

using namespace rovista;

namespace {

struct ColdRound {
  double setup_s = 0.0;
  double round_s = 0.0;
};

ColdRound cold_round(const Options& options, std::uint64_t index,
                     Report& report, std::map<std::string, std::vector<double>>& layer) {
  const bool traced = Tracer::instance().enabled();
  const auto params = round_world(world_seed(options.seed, index));
  const util::Date date = params.end;
  const int threads = round_threads();
  ColdRound out;

  Span round_span("bench", "cold_round");
  const auto t0 = Clock::now();
  std::unique_ptr<scenario::Scenario> world;
  {
    Span s("scenario", "scenario.build");
    world = std::make_unique<scenario::Scenario>(params);
  }
  {
    Span s("scenario", "scenario.advance");
    world->advance_to(date);
  }
  {
    Span s("bgp", "bgp.converge");
    for (const auto& prefix : world->routing().all_prefixes()) {
      world->routing().routes_for(prefix);
    }
  }
  out.setup_s = seconds_since(t0);
  layer["bgp.cached_prefixes"].push_back(
      static_cast<double>(world->routing().cached_prefixes()));

  const auto t1 = Clock::now();
  scan::MeasurementClient client_a(world->plane(), world->client_as_a(),
                                   world->client_addr_a());
  scan::MeasurementClient client_b(world->plane(), world->client_as_b(),
                                   world->client_addr_b());
  core::Rovista rovista(world->plane(), client_a, client_b,
                        round_config(threads));
  std::vector<scan::Tnode> tnodes;
  {
    bgp::CollectorSnapshot view;
    {
      Span s("bgp", "bgp.collector_snapshot");
      view = world->collector().snapshot(world->routing());
    }
    Span s("scan", "scan.tnode_discovery");
    tnodes = rovista.acquire_tnodes(view, world->current_vrps(),
                                    world->rov_reference_ases(date, 10),
                                    world->non_rov_reference_ases(date, 10));
  }
  std::vector<scan::Vvp> vvps;
  {
    Span s("scan", "scan.vvp_discovery");
    vvps = rovista.acquire_vvps(world->vvp_candidates());
  }
  core::ReplicaFactory factory;
  {
    Span s("snapshot", "snapshot.factory");
    factory = snapshot::make_measurement_factory(
        params, world->current(), snapshot::EngineMode::kSnapshot);
  }
  core::MeasurementRound round;
  {
    Span s("core", "core.measure");
    const auto m0 = Clock::now();
    round = rovista.run_round_parallel(factory, vvps, tnodes);
    layer["core.experiments_per_s"].push_back(
        static_cast<double>(round.experiments_run) / seconds_since(m0));
  }
  const std::string out_dir =
      options.work_dir + "/cold-" + std::to_string(index);
  std::optional<std::size_t> written;
  {
    Span s("core", "core.publish");
    core::LongitudinalStore store;
    store.record(world->current(), round.scores);
    written = core::publish_scores(store, out_dir);
  }
  out.round_s = seconds_since(t1);

  if (traced) {
    Span s("snapshot", "snapshot.reader");
    auto reader = factory();
  }
  layer["scan.tnodes"].push_back(static_cast<double>(tnodes.size()));
  layer["scan.vvps"].push_back(static_cast<double>(vvps.size()));
  layer["core.inconclusive"].push_back(static_cast<double>(round.inconclusive));

  const std::string label = "cold round " + std::to_string(index);
  report.attempt();
  bool ok = report.check(written.has_value() && *written == 1,
                         label + ": CSV publish failed");
  ok &= report.check(!round.scores.empty(), label + ": no AS scored");
  ok &= check_round(report, label, world->plane(), round, vvps, tnodes);
  if (!ok) report.fail();
  std::filesystem::remove_all(out_dir);
  return out;
}

}  // namespace

void run_cold_measure(const Options& options, Report& report) {
  const bool traced = options.trace;
  std::vector<double> setup_s, round_s;
  std::vector<double> traced_round_s, untraced_round_s;
  std::map<std::string, std::vector<double>> layer;
  Calibration calibration;
  const auto start = Clock::now();
  std::uint64_t index = 0;
  // Whole rounds only: a round that starts before the deadline runs to
  // its end. A traced run alternates untraced and traced rounds so the
  // tracing overhead is measured in the same process.
  do {
    const bool trace_this = traced && index % 2 == 1;
    calibration.sample();
    if (trace_this) Tracer::instance().enable();
    const ColdRound r = cold_round(options, index, report, layer);
    if (trace_this) Tracer::instance().disable();
    setup_s.push_back(r.setup_s);
    round_s.push_back(r.round_s);
    (trace_this ? traced_round_s : untraced_round_s).push_back(r.round_s);
    ++index;
  } while (seconds_since(start) < options.seconds || (traced && index < 2));

  if (!traced) {
    double total = 0.0;
    for (const double s : round_s) total += s;
    report_end_to_end(report, calibration, median(setup_s),
                      median(round_s) * 1e3,
                      static_cast<double>(round_s.size()) / total);
    return;
  }
  LayerValues values;
  for (const auto& [name, samples] : layer) values[name] = median(samples);
  values["bgp.converge_s"] = span_median("bgp.converge");
  values["snapshot.factory_s"] = span_median("snapshot.factory");
  values["snapshot.reader_ms"] = span_median("snapshot.reader", 1e3);
  values["scan.tnode_discovery_s"] = span_median("scan.tnode_discovery");
  values["scan.vvp_discovery_s"] = span_median("scan.vvp_discovery");
  values["core.measure_s"] = span_median("core.measure");
  values["core.publish_ms"] = span_median("core.publish", 1e3);
  report_layers(report, values,
                median(traced_round_s) / median(untraced_round_s), calibration);
}

}  // namespace perfbench
