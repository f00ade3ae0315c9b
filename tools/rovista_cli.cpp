// rovista — command-line front end.
//
// Subcommands:
//   measure  --seed N --date YYYY-MM-DD --out DIR
//            run one full measurement round against a simulated Internet
//            and publish the per-AS scores as the daily CSV dataset
//   query    --dir DIR [--asn N]
//            query a published score dataset (latest scores, or one AS's
//            full series)
//   audit    --seed N --asn N [--date YYYY-MM-DD]
//            audit one AS: score, per-tNode verdicts, leak paths
//   longitudinal
//            --seed N --rounds N [--interval-days N] [--threads N]
//            [--incremental on|off] [--out FILE] [--publish DIR]
//            run a dated sequence of rounds through the incremental
//            engine (or full recompute per round with --incremental
//            off) and emit a per-round CSV series
//   serve    --seed N --rounds N [--port P] [--workers N] ...
//            long-lived RQP query daemon: answers score / trajectory /
//            reachability queries over live epoch snapshots while the
//            incremental engine publishes rounds behind it
//   loadgen  --port P [--requests N] [--connections N] ...
//            open- or closed-loop load generator for a serve daemon
//   feedcheck --record FILE --published DIR
//            byte-compare a loadgen score record against a published
//            CSV dataset (the torn-read oracle of the tier-1 stage)
//
// Everything is deterministic in --seed; see README.md for the library
// behind it.
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include <fstream>

#include <cstdlib>

#include "analytics/queries.h"
#include "bgp/mrt.h"
#include "core/incremental_runner.h"
#include "core/publish.h"
#include "core/rovista.h"
#include "dataplane/traceroute.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_io.h"
#include "persist/wire.h"
#include "scenario/scenario.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "snapshot/world_source.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace rovista;

struct Args {
  std::map<std::string, std::string> options;

  const char* get(const char* key, const char* fallback = nullptr) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second.c_str() : fallback;
  }
  bool has(const char* key) const { return options.count(key) != 0; }
};

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    // A flag followed by another flag (or nothing) is a bare switch,
    // e.g. --resume; otherwise the next token is its value.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.options[argv[i] + 2] = "";
    }
  }
  return args;
}

/// --engine snapshot|replica (default snapshot): which world engine
/// backs parallel measurement (snapshot/world_source.h). Output is
/// engine-invariant; the flag exists so the tier-1 equivalence stages
/// can byte-diff the two. Returns nullopt on a bad value.
std::optional<snapshot::EngineMode> parse_engine(const Args& args) {
  const char* engine = args.get("engine", "snapshot");
  if (std::strcmp(engine, "snapshot") == 0) {
    return snapshot::EngineMode::kSnapshot;
  }
  if (std::strcmp(engine, "replica") == 0) {
    return snapshot::EngineMode::kReplica;
  }
  std::fprintf(stderr, "error: --engine must be snapshot or replica\n");
  return std::nullopt;
}

/// --topology caida:FILE | synthetic:FACTOR (default synthetic:1).
/// caida: loads a CAIDA serial-2 as-rel file (docs/FORMATS.md section 4)
/// instead of generating a world. synthetic:FACTOR scales the generated
/// world: transit and stub counts multiply by FACTOR while the peer-edge
/// densities divide by it, holding per-AS peer degree (and so total edge
/// count) roughly linear in FACTOR. synthetic:1 is the standard paper
/// world, byte-identical to omitting the flag.
bool parse_topology(const Args& args, scenario::ScenarioParams& params) {
  const char* t = args.get("topology");
  if (t == nullptr) return true;
  const std::string value = t;
  if (value.rfind("caida:", 0) == 0) {
    const std::string path = value.substr(6);
    if (path.empty()) {
      std::fprintf(stderr, "error: --topology caida: needs a file path\n");
      return false;
    }
    params.topology.caida_path = path;
    return true;
  }
  if (value.rfind("synthetic:", 0) == 0) {
    std::uint64_t factor = 0;
    if (!util::parse_u64(value.c_str() + 10, factor) || factor < 1 ||
        factor > 64) {
      std::fprintf(stderr,
                   "error: --topology synthetic: factor must be 1..64\n");
      return false;
    }
    const int f = static_cast<int>(factor);
    params.topology.tier2_count *= f;
    params.topology.tier3_count *= f;
    params.topology.stub_count *= f;
    params.topology.tier2_peer_prob /= f;
    params.topology.tier3_peer_prob /= f;
    return true;
  }
  std::fprintf(stderr,
               "error: --topology must be caida:FILE or synthetic:FACTOR\n");
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: rovista <command> [options]\n"
      "  measure --seed N --date YYYY-MM-DD --out DIR [--mrt FILE]\n"
      "          [--threads N] [--engine snapshot|replica]\n"
      "          [--topology caida:FILE|synthetic:FACTOR]\n"
      "          run one round, publish scores, optionally archive the\n"
      "          collector table as an MRT TABLE_DUMP_V2 file;\n"
      "          --threads shards the round by vVP across worker\n"
      "          replicas (output bit-identical for any count >= 1 and\n"
      "          either engine, see DESIGN.md); --engine picks the world\n"
      "          engine: snapshot (default, one immutable epoch shared\n"
      "          by all workers) or replica (full private world each);\n"
      "          --topology swaps the simulated Internet: a CAIDA\n"
      "          serial-2 as-rel file (docs/FORMATS.md section 4) or a\n"
      "          scaled synthetic world (FACTOR 1..64 multiplies transit\n"
      "          and stub counts; measure worlds cap at ~32.5k ASes —\n"
      "          factor <= 6 on default tiers)\n"
      "  query   --dir DIR [--asn N]                    read a dataset\n"
      "  audit   --seed N --asn N [--date YYYY-MM-DD]   audit one AS\n"
      "  longitudinal --seed N --rounds N [--interval-days N]\n"
      "          [--start YYYY-MM-DD] [--threads N] [--incremental on|off]\n"
      "          [--engine snapshot|replica] [--out FILE]\n"
      "          [--publish DIR] [--scale small|paper]\n"
      "          [--slurm-fraction F]\n"
      "          [--rp-failure-rate F] [--rp-divergence-fraction F]\n"
      "          [--rtr-drop-rate F]\n"
      "          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "          [--archive DIR] [--die-after N]\n"
      "          run a dated round sequence; VRP deltas drive dirty-\n"
      "          prefix recomputation and a reachability-aware score\n"
      "          cache unless --incremental off forces full recompute\n"
      "          per round (scores identical either way); the per-round\n"
      "          series goes to --out as CSV. With --checkpoint-dir the\n"
      "          series writes crash-safe RVCP checkpoints (see\n"
      "          docs/FORMATS.md) and --resume continues an interrupted\n"
      "          series bit-identically. The fault knobs inject RPKI\n"
      "          supply-chain failures (RP crashes serving stale VRPs,\n"
      "          RTR session drops/corrupt PDUs, divergent RP\n"
      "          implementations); all default to 0, which leaves every\n"
      "          output byte-identical to a fault-free run. --archive\n"
      "          appends every completed round as one durable RVLA frame\n"
      "          (docs/FORMATS.md section 5) for `rovista analyze`.\n"
      "          --die-after is the crash-safety test hook: _Exit(137)\n"
      "          after N completed rounds, skipping destructors\n"
      "  analyze --archive DIR\n"
      "          [--query info|latest-cdf|fraction-trend|series|jumps|churn]\n"
      "          [--threshold T] [--asn N] [--low L] [--high H]\n"
      "          [--out FILE] [--publish DIR]\n"
      "          stream the paper's longitudinal queries straight off an\n"
      "          RVLA archive — no in-memory store, memory stays O(ASes)\n"
      "          regardless of round count. latest-cdf = Fig. 5 CDF of\n"
      "          each AS's latest score; fraction-trend = Fig. 6 fraction\n"
      "          of ASes at or above --threshold (default 100) per date;\n"
      "          series = one AS's full (date, score) trajectory (--asn);\n"
      "          jumps = section-7.3 scans for scores moving from\n"
      "          <= --low (default 0) to >= --high (default 100) between\n"
      "          consecutive rounds; churn = per-transition change\n"
      "          aggregates. Answers are bit-identical to the in-memory\n"
      "          LongitudinalStore (tier-1 byte-compares them). CSV goes\n"
      "          to stdout or --out; --publish re-emits the section-2\n"
      "          dataset byte-identically to `longitudinal --publish`\n"
      "  checkpoint inspect (--dir DIR | --file FILE)\n"
      "          print the header, section table and integrity verdict\n"
      "          of a checkpoint without restoring it\n"
      "  serve   --seed N --rounds N [--interval-days N]\n"
      "          [--start YYYY-MM-DD]\n"
      "          [--scale small|paper] [--port P] [--workers N]\n"
      "          [--threads N] [--publish DIR] [--warn-depth N]\n"
      "          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "          [--archive DIR]\n"
      "          start the RQP v1 query daemon (docs/FORMATS.md section 3)\n"
      "          on 127.0.0.1 (--port 0 = kernel-assigned; the bound port\n"
      "          is announced as 'LISTENING <port>' on stdout), run the\n"
      "          round series behind it, then keep serving until SIGTERM\n"
      "          (graceful: in-flight responses are flushed). --resume\n"
      "          warm-starts scores/trajectories from an RVCP checkpoint;\n"
      "          --publish writes the CSV dataset once the series ends\n"
      "          and announces 'PUBLISHED <dir>'; --warn-depth enables\n"
      "          the pin-leak diagnostic on the epoch chain; --archive\n"
      "          appends rounds to an RVLA archive and, without --resume,\n"
      "          warm-starts scores/trajectories from it when it already\n"
      "          holds rounds\n"
      "  loadgen --port P [--host H] [--requests N] [--connections N]\n"
      "          [--threads N] [--rate R] [--pipeline N]\n"
      "          [--traj-fraction F] [--reach-fraction F] [--seed N]\n"
      "          [--reach-dst ADDR32] [--reach-port P]\n"
      "          [--timeout-ms N] [--record FILE] [--json FILE]\n"
      "          drive a serve daemon: open-loop at --rate req/s, or\n"
      "          closed-loop at --pipeline outstanding per connection;\n"
      "          --record captures every OK score response for feedcheck;\n"
      "          --reach-dst/--reach-port pin reachability queries to one\n"
      "          numeric IPv4 destination instead of sampled tNodes\n"
      "  feedcheck --record FILE --published DIR\n"
      "          verify a loadgen record byte-for-byte against a\n"
      "          published dataset: every served score must equal the\n"
      "          published score of its own round's date\n");
  return 2;
}

struct MeasuredWorld {
  scenario::ScenarioParams params;
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<scan::MeasurementClient> client_a;
  std::unique_ptr<scan::MeasurementClient> client_b;
  std::unique_ptr<core::Rovista> rovista;
  std::vector<scan::Tnode> tnodes;
};

MeasuredWorld build_world(scenario::ScenarioParams params, util::Date date,
                          int num_threads = 0) {
  MeasuredWorld world;
  world.params = params;
  world.scenario = std::make_unique<scenario::Scenario>(std::move(params));
  if (date < world.scenario->start()) date = world.scenario->start();
  if (date > world.scenario->end()) date = world.scenario->end();
  world.scenario->advance_to(date);
  world.client_a = std::make_unique<scan::MeasurementClient>(
      world.scenario->plane(), world.scenario->client_as_a(),
      world.scenario->client_addr_a());
  world.client_b = std::make_unique<scan::MeasurementClient>(
      world.scenario->plane(), world.scenario->client_as_b(),
      world.scenario->client_addr_b());
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 3;
  config.num_threads = num_threads;
  world.rovista = std::make_unique<core::Rovista>(
      world.scenario->plane(), *world.client_a, *world.client_b, config);
  const auto view =
      world.scenario->collector().snapshot(world.scenario->routing());
  world.tnodes = world.rovista->acquire_tnodes(
      view, world.scenario->current_vrps(),
      world.scenario->rov_reference_ases(date, 10),
      world.scenario->non_rov_reference_ases(date, 10));
  return world;
}

int cmd_measure(const Args& args) {
  const char* out = args.get("out");
  if (out == nullptr) return usage();
  std::uint64_t seed = 42;
  if (const char* s = args.get("seed")) util::parse_u64(s, seed);
  util::Date date = util::Date::from_ymd(2023, 9, 12);
  if (const char* d = args.get("date")) util::Date::parse(d, date);
  std::uint64_t threads = 0;
  if (const char* t = args.get("threads")) util::parse_u64(t, threads);
  const std::optional<snapshot::EngineMode> engine = parse_engine(args);
  if (!engine.has_value()) return usage();
  scenario::ScenarioParams params;
  params.seed = seed;
  if (!parse_topology(args, params)) return usage();

  std::printf("building world (seed %llu) ...\n",
              static_cast<unsigned long long>(seed));
  MeasuredWorld world = build_world(std::move(params), date,
                                    static_cast<int>(threads));
  std::printf("ASes: %zu, tNodes: %zu\n", world.scenario->graph().size(),
              world.tnodes.size());
  const auto vvps =
      world.rovista->acquire_vvps(world.scenario->vvp_candidates());
  std::printf("vVPs: %zu\n", vvps.size());
  core::MeasurementRound round;
  if (threads >= 1) {
    // Parallel for any explicit --threads (including 1, so thread
    // counts stay comparable): vVP-sharded workers on private worlds
    // from the one measurement factory (snapshot/world_source.h),
    // bit-identical output regardless of count or engine. Without
    // --threads the round runs serially on the shared discovery world.
    std::printf("measuring with %llu worker threads (%s engine)\n",
                static_cast<unsigned long long>(threads),
                snapshot::engine_mode_name(*engine));
    const auto factory = snapshot::make_measurement_factory(
        world.params, world.scenario->current(), *engine);
    round = world.rovista->run_round_parallel(factory, vvps, world.tnodes);
  } else {
    round = world.rovista->run_round(vvps, world.tnodes);
  }
  std::printf("experiments: %zu, ASes scored: %zu\n", round.experiments_run,
              round.scores.size());

  core::LongitudinalStore store;
  store.record(world.scenario->current(), round.scores);
  const auto written = core::publish_scores(store, out);
  if (!written.has_value()) {
    std::fprintf(stderr, "error: could not write %s\n", out);
    return 1;
  }
  std::printf("published %zu snapshot(s) under %s\n", *written, out);

  // Also archive the collector's table the way RouteViews would: an MRT
  // TABLE_DUMP_V2 file next to the score dataset.
  if (const char* mrt_path = args.get("mrt")) {
    const auto view =
        world.scenario->collector().snapshot(world.scenario->routing());
    const auto bytes = bgp::mrt::export_table_dump(
        view, static_cast<std::uint32_t>(
                  world.scenario->current().days_since_epoch() * 86400));
    std::ofstream f(mrt_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (f) {
      std::printf("wrote MRT table dump (%zu bytes, %zu entries) to %s\n",
                  bytes.size(), view.entries.size(), mrt_path);
    } else {
      std::fprintf(stderr, "error: could not write %s\n", mrt_path);
      return 1;
    }
  }
  return 0;
}

int cmd_query(const Args& args) {
  const char* dir = args.get("dir");
  if (dir == nullptr) return usage();
  const auto store = core::load_scores(dir);
  if (!store.has_value()) {
    std::fprintf(stderr, "error: no dataset at %s\n", dir);
    return 1;
  }
  if (const char* asn_str = args.get("asn")) {
    std::uint64_t asn = 0;
    if (!util::parse_u64(asn_str, asn)) return usage();
    const auto series = store->series(static_cast<core::Asn>(asn));
    if (series.empty()) {
      std::printf("AS%llu: no measurements\n",
                  static_cast<unsigned long long>(asn));
      return 0;
    }
    for (const auto& [date, score] : series) {
      std::printf("%s  AS%llu  %.2f%%\n", date.to_string().c_str(),
                  static_cast<unsigned long long>(asn), score);
    }
    return 0;
  }
  util::Table table({"ASN", "latest score"});
  for (const auto asn : store->ases()) {
    const auto score = store->latest_score(asn);
    table.add_row({std::to_string(asn),
                   score ? util::fmt_double(*score, 2) + "%" : "-"});
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

int cmd_audit(const Args& args) {
  const char* asn_str = args.get("asn");
  if (asn_str == nullptr) return usage();
  std::uint64_t asn64 = 0;
  if (!util::parse_u64(asn_str, asn64)) return usage();
  const auto asn = static_cast<core::Asn>(asn64);
  std::uint64_t seed = 42;
  if (const char* s = args.get("seed")) util::parse_u64(s, seed);
  util::Date date = util::Date::from_ymd(2023, 9, 12);
  if (const char* d = args.get("date")) util::Date::parse(d, date);

  scenario::ScenarioParams params;
  params.seed = seed;
  MeasuredWorld world = build_world(std::move(params), date);
  auto& s = *world.scenario;
  if (!s.graph().contains(asn)) {
    std::fprintf(stderr, "error: AS%u does not exist in this world\n", asn);
    return 1;
  }

  std::vector<net::Ipv4Address> candidates;
  for (const auto addr : s.vvp_candidates()) {
    if (s.plane().as_of(addr) == asn) candidates.push_back(addr);
  }
  const auto vvps = world.rovista->acquire_vvps(candidates);
  if (vvps.empty()) {
    std::printf("AS%u has no usable vVPs — unmeasurable from outside\n",
                asn);
    return 0;
  }
  const auto round = world.rovista->run_round(vvps, world.tnodes);
  for (const auto& score : round.scores) {
    if (score.asn != asn) continue;
    std::printf("AS%u ROV protection score: %.1f%% (%d vVPs, %d tNodes)\n",
                asn, score.score, score.vvp_count, score.tnodes_consistent);
    if (score.score < 100.0) {
      std::printf("reachable RPKI-invalid destinations:\n");
      for (const auto& tnode : world.tnodes) {
        const auto tr = dataplane::tcp_traceroute(s.plane(), asn,
                                                  tnode.address, tnode.port);
        if (!tr.reached) continue;
        std::string path;
        for (const auto hop : tr.hops) {
          path += "AS" + std::to_string(hop) + " ";
        }
        std::printf("  %s via %s\n", tnode.address.to_string().c_str(),
                    path.c_str());
      }
    }
    return 0;
  }
  std::printf("AS%u: not enough conclusive measurements\n", asn);
  return 0;
}

int cmd_longitudinal(const Args& args) {
  std::uint64_t seed = 42;
  if (const char* s = args.get("seed")) util::parse_u64(s, seed);
  std::uint64_t rounds = 0;
  if (const char* r = args.get("rounds")) util::parse_u64(r, rounds);
  if (rounds == 0) return usage();
  std::uint64_t interval_days = 30;
  if (const char* i = args.get("interval-days")) {
    util::parse_u64(i, interval_days);
  }
  if (interval_days == 0) interval_days = 1;
  std::uint64_t threads = 0;
  if (const char* t = args.get("threads")) util::parse_u64(t, threads);
  const char* mode = args.get("incremental", "on");
  if (std::strcmp(mode, "on") != 0 && std::strcmp(mode, "off") != 0) {
    return usage();
  }
  const char* scale = args.get("scale", "paper");
  if (std::strcmp(scale, "paper") != 0 && std::strcmp(scale, "small") != 0) {
    return usage();
  }

  const std::optional<snapshot::EngineMode> engine = parse_engine(args);
  if (!engine.has_value()) return usage();

  core::IncrementalConfig config;
  config.params.seed = seed;
  config.rovista.scoring.min_vvps_per_as = 2;
  config.rovista.scoring.min_tnodes = 3;
  config.rovista.num_threads = static_cast<int>(threads);
  config.incremental = std::strcmp(mode, "on") == 0;
  config.engine = *engine;
  if (std::strcmp(scale, "small") == 0) {
    // The tests' standard small world (tests/round_fixture.h) — fast
    // enough for CI series like the tier-1 kill/resume stage.
    config.params.topology.tier1_count = 4;
    config.params.topology.tier2_count = 14;
    config.params.topology.tier3_count = 36;
    config.params.topology.stub_count = 120;
    config.params.tnode_prefix_count = 4;
    config.params.measured_as_count = 12;
    config.params.hosts_per_measured_as = 3;
    config.params.collector_peer_count = 30;
    config.rovista.scoring.min_tnodes = 2;
  }
  if (const char* sf = args.get("slurm-fraction")) {
    // Fraction of ROV deployers carrying RFC 8416 local exceptions;
    // exercises the per-view delta-invalidation path of apply_vrp_delta.
    double slurm_fraction = 0.0;
    if (!util::parse_double(sf, slurm_fraction) || slurm_fraction < 0.0 ||
        slurm_fraction > 1.0) {
      std::fprintf(stderr, "error: --slurm-fraction must be in [0,1]\n");
      return usage();
    }
    config.params.slurm_fraction = slurm_fraction;
  }
  // Fault-injection knobs (faults/fault_schedule.h). All default to 0;
  // a knob-0 run splits no fault RNG stream and produces bytes identical
  // to a fault-free build.
  const auto parse_fault_rate = [&](const char* flag, double& out) -> bool {
    const char* v = args.get(flag);
    if (v == nullptr) return true;
    double rate = 0.0;
    if (!util::parse_double(v, rate) || rate < 0.0 || rate > 1.0) {
      std::fprintf(stderr, "error: --%s must be in [0,1]\n", flag);
      return false;
    }
    out = rate;
    return true;
  };
  if (!parse_fault_rate("rp-failure-rate",
                        config.params.faults.rp_failure_rate) ||
      !parse_fault_rate("rp-divergence-fraction",
                        config.params.faults.rp_divergence_fraction) ||
      !parse_fault_rate("rtr-drop-rate", config.params.faults.rtr_drop_rate)) {
    return usage();
  }
  const bool faulted = config.params.faults.enabled();

  util::Date start_date = config.params.start;
  if (const char* d = args.get("start")) util::Date::parse(d, start_date);

  // Round i measures at min(start + i * interval, scenario end) — the
  // closed form makes the date sequence a function of the round index,
  // so a resumed process recomputes exactly the dates it skips.
  const util::Date series_end = config.params.end;
  const auto round_date = [&](std::uint64_t i) {
    util::Date d = start_date + static_cast<int>(i * interval_days);
    if (d > series_end) d = series_end;
    return d;
  };

  if (args.has("checkpoint-dir")) {
    config.checkpoint_dir = args.get("checkpoint-dir", "");
    if (config.checkpoint_dir.empty()) return usage();
    std::uint64_t every = 1;
    if (const char* e = args.get("checkpoint-every")) {
      util::parse_u64(e, every);
    }
    config.checkpoint_every = static_cast<int>(every);
    // Series-shape guard: the engine digest covers the world and the
    // measurement config; this covers the CLI-level schedule, so a
    // checkpoint from a differently-paced series is refused on resume.
    persist::ByteWriter tag;
    tag.i64(start_date.days_since_epoch());
    tag.u64(interval_days);
    tag.u8(std::strcmp(scale, "small") == 0 ? 1 : 0);
    config.checkpoint_user_tag = persist::fnv1a64(tag.data());
  } else if (args.has("resume") || args.has("checkpoint-every")) {
    std::fprintf(stderr,
                 "error: --resume/--checkpoint-every need --checkpoint-dir\n");
    return usage();
  }
  if (args.has("archive")) {
    config.archive_dir = args.get("archive", "");
    if (config.archive_dir.empty()) return usage();
  }

  // Test hook for the tier-1 crash-safety stage: simulate a process
  // death (no destructors, no exit checkpoint) after N completed rounds.
  std::uint64_t die_after = 0;
  if (const char* d = args.get("die-after")) util::parse_u64(d, die_after);

  std::printf("running %llu rounds (seed %llu, incremental %s) ...\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(seed), mode);
  core::IncrementalLongitudinalRunner runner(config);

  std::uint64_t first_round = 0;
  if (args.has("resume")) {
    if (runner.resume_from_checkpoint()) {
      first_round = runner.completed_rounds();
      std::printf("resumed from checkpoint: %llu round(s) already done\n",
                  static_cast<unsigned long long>(first_round));
    } else {
      std::printf("no usable checkpoint — starting from scratch\n");
    }
  }

  // The degradation columns appear only in faulted runs, so a knob-0
  // series CSV stays byte-identical to a pre-fault build's.
  std::string csv =
      "date,events,vrp_announced,vrp_withdrawn,dirty_prefixes,"
      "discovery_reused,dirty_rows,total_rows,executed_pairs,reused_pairs,"
      "ases_scored";
  if (faulted) {
    csv +=
        ",stale_ases,expired_ases,diverged_ases,max_staleness_days,"
        "error_reports";
  }
  csv += '\n';
  for (std::uint64_t i = first_round; i < rounds; ++i) {
    const core::RoundReport report = runner.run_round(round_date(i));
    std::printf(
        "%s  events=%zu vrp+%zu/-%zu dirty_prefixes=%zu rows %zu/%zu "
        "pairs %zu run / %zu cached  ases=%zu\n",
        report.date.to_string().c_str(), report.events, report.vrp_announced,
        report.vrp_withdrawn, report.dirty_prefix_count, report.dirty_rows,
        report.total_rows, report.executed_pairs, report.reused_pairs,
        report.round.scores.size());
    if (faulted) {
      std::printf(
          "            chain health: stale=%llu expired=%llu diverged=%llu "
          "max_staleness=%lldd error_reports=%llu\n",
          static_cast<unsigned long long>(report.health.stale_ases),
          static_cast<unsigned long long>(report.health.expired_ases),
          static_cast<unsigned long long>(report.health.diverged_ases),
          static_cast<long long>(report.health.max_staleness_days),
          static_cast<unsigned long long>(report.health.error_reports));
    }
    csv += report.date.to_string() + ',' + std::to_string(report.events) +
           ',' + std::to_string(report.vrp_announced) + ',' +
           std::to_string(report.vrp_withdrawn) + ',' +
           std::to_string(report.dirty_prefix_count) + ',' +
           (report.discovery_reused ? "1" : "0") + ',' +
           std::to_string(report.dirty_rows) + ',' +
           std::to_string(report.total_rows) + ',' +
           std::to_string(report.executed_pairs) + ',' +
           std::to_string(report.reused_pairs) + ',' +
           std::to_string(report.round.scores.size());
    if (faulted) {
      csv += ',' + std::to_string(report.health.stale_ases) + ',' +
             std::to_string(report.health.expired_ases) + ',' +
             std::to_string(report.health.diverged_ases) + ',' +
             std::to_string(report.health.max_staleness_days) + ',' +
             std::to_string(report.health.error_reports);
    }
    csv += '\n';
    if (die_after > 0 && runner.completed_rounds() >= die_after) {
      // Death, not exit: skip destructors so nothing gets flushed or
      // checkpointed beyond what run_round already persisted.
      std::_Exit(137);
    }
  }

  if (const char* out = args.get("out")) {
    std::ofstream f(out);
    f << csv;
    if (!f) {
      std::fprintf(stderr, "error: could not write %s\n", out);
      return 1;
    }
    std::printf("wrote round series to %s\n", out);
  } else {
    std::printf("%s", csv.c_str());
  }
  if (const char* publish = args.get("publish")) {
    const auto written = core::publish_scores(runner.store(), publish);
    if (!written.has_value()) {
      std::fprintf(stderr, "error: could not write %s\n", publish);
      return 1;
    }
    std::printf("published %zu snapshot(s) under %s\n", *written, publish);
  }
  return 0;
}

// `rovista analyze`: the paper's longitudinal queries, streamed off an
// RVLA archive (docs/FORMATS.md §5). Every answer is bit-identical to
// the in-memory LongitudinalStore fed the same rounds — the tier-1
// archive stage byte-diffs --publish output against `longitudinal
// --publish`, and tests/test_rvla.cpp oracle-gates the query CSVs.
int cmd_analyze(const Args& args) {
  const char* dir = args.get("archive");
  if (dir == nullptr) return usage();
  const char* query = args.get("query", "info");

  std::string error;
  std::string csv;
  if (std::strcmp(query, "info") == 0) {
    const auto info = analytics::archive_info(dir, &error);
    if (!info.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("archive %s\n", dir);
    std::printf("  frames:     %llu\n",
                static_cast<unsigned long long>(info->frames));
    std::printf("  data bytes: %llu\n",
                static_cast<unsigned long long>(info->data_bytes));
    std::printf("  ases:       %llu\n",
                static_cast<unsigned long long>(info->as_count));
    std::printf("  dates:      %llu%s\n",
                static_cast<unsigned long long>(info->date_count),
                info->any_health ? "  (with round health)" : "");
    if (info->first_date.has_value()) {
      std::printf("  range:      %s .. %s\n",
                  info->first_date->to_string().c_str(),
                  info->last_date->to_string().c_str());
    }
  } else if (std::strcmp(query, "latest-cdf") == 0) {
    const auto latest = analytics::latest_scores(dir, &error);
    if (!latest.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::latest_cdf_csv(*latest);
  } else if (std::strcmp(query, "fraction-trend") == 0) {
    double threshold = 100.0;
    if (const char* t = args.get("threshold")) {
      if (!util::parse_double(t, threshold)) return usage();
    }
    const auto trend = analytics::fraction_trend(dir, threshold, &error);
    if (!trend.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::fraction_trend_csv(*trend, threshold);
  } else if (std::strcmp(query, "series") == 0) {
    const char* asn_str = args.get("asn");
    std::uint64_t asn = 0;
    if (asn_str == nullptr || !util::parse_u64(asn_str, asn)) {
      return usage();
    }
    const auto series = analytics::as_series(
        dir, static_cast<core::Asn>(asn), &error);
    if (!series.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::series_csv(static_cast<core::Asn>(asn), *series);
  } else if (std::strcmp(query, "jumps") == 0) {
    double low = 0.0;
    double high = 100.0;
    if (const char* l = args.get("low")) {
      if (!util::parse_double(l, low)) return usage();
    }
    if (const char* h = args.get("high")) {
      if (!util::parse_double(h, high)) return usage();
    }
    const auto jumps = analytics::score_jumps(dir, low, high, &error);
    if (!jumps.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::jumps_csv(*jumps);
  } else if (std::strcmp(query, "churn") == 0) {
    const auto rows = analytics::churn(dir, &error);
    if (!rows.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    csv = analytics::churn_csv(*rows);
  } else {
    std::fprintf(stderr, "error: unknown --query '%s'\n", query);
    return usage();
  }

  if (!csv.empty()) {
    if (const char* out = args.get("out")) {
      std::ofstream f(out);
      f << csv;
      if (!f) {
        std::fprintf(stderr, "error: could not write %s\n", out);
        return 1;
      }
      std::printf("wrote %s\n", out);
    } else {
      std::printf("%s", csv.c_str());
    }
  }

  if (const char* publish = args.get("publish")) {
    const auto written = analytics::publish_archive(dir, publish, &error);
    if (!written.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("published %zu snapshot(s) under %s\n", *written, publish);
  }
  return 0;
}

int cmd_checkpoint_inspect(const Args& args) {
  std::string path;
  if (const char* file = args.get("file")) {
    path = file;
  } else if (const char* dir = args.get("dir")) {
    path = persist::CheckpointPaths::in(dir).current;
  } else {
    return usage();
  }

  const auto bytes = persist::read_file_bytes(path);
  if (!bytes.has_value()) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  const auto info = persist::inspect_checkpoint(*bytes);
  if (!info.has_value()) {
    std::printf("%s: %zu bytes — too short to contain an RVCP header\n",
                path.c_str(), bytes->size());
    return 1;
  }

  std::printf("%s: %llu bytes\n", path.c_str(),
              static_cast<unsigned long long>(info->file_size));
  std::printf("  magic            %s\n", info->magic_ok ? "RVCP" : "BAD");
  std::printf("  format version   %u%s\n", info->format_version,
              info->version_supported ? "" : " (unsupported)");
  std::printf("  sections         %u (table CRC %s)\n", info->section_count,
              info->table_crc_ok ? "ok" : "BAD");
  util::Table table(
      {"section", "id", "offset", "length", "crc stored", "crc actual", "ok"});
  for (const auto& s : info->sections) {
    char stored[16];
    char actual[16];
    std::snprintf(stored, sizeof stored, "%08x", s.stored_crc);
    std::snprintf(actual, sizeof actual, "%08x",
                  s.in_bounds ? s.computed_crc : 0);
    table.add_row({persist::section_name(s.id), std::to_string(s.id),
                   std::to_string(s.offset), std::to_string(s.length), stored,
                   s.in_bounds ? actual : "-",
                   !s.in_bounds ? "OUT OF BOUNDS"
                                : (s.crc_ok ? "ok" : "BAD")});
  }
  std::printf("%s", table.to_text().c_str());

  if (!info->decodes) {
    std::string error;
    persist::decode_checkpoint(*bytes, &error);
    std::printf("verdict: NOT loadable — %s\n", error.c_str());
    return 1;
  }
  const auto state = persist::decode_checkpoint(*bytes);
  std::size_t cached = 0;
  for (const auto& e : state->cache_entries) {
    if (e.has_value()) ++cached;
  }
  std::printf("verdict: loadable\n");
  std::printf("  config digest    %016llx\n",
              static_cast<unsigned long long>(state->config_digest));
  std::printf("  series tag       %016llx\n",
              static_cast<unsigned long long>(state->user_tag));
  std::printf("  mode             %s\n",
              state->incremental ? "incremental" : "full recompute");
  std::string round_span;
  if (!state->rounds.empty()) {
    round_span = "  (" + state->rounds.front().date.to_string() + " .. " +
                 state->rounds.back().date.to_string() + ")";
  }
  std::printf("  rounds           %zu%s\n", state->rounds.size(),
              round_span.c_str());
  std::printf("  discovery        %zu vVPs, %zu tNodes\n",
              state->vvps.size(), state->tnodes.size());
  std::printf("  score cache      %zu x %zu matrix, %zu cached\n",
              state->cache_vvp_addrs.size(), state->cache_tnode_addrs.size(),
              cached);
  std::printf("  VRP snapshot     %zu VRPs\n", state->vrps.size());
  return 0;
}

int cmd_serve(const Args& args) {
  std::uint64_t seed = 42;
  if (const char* s = args.get("seed")) util::parse_u64(s, seed);
  std::uint64_t rounds = 0;
  if (const char* r = args.get("rounds")) util::parse_u64(r, rounds);
  if (rounds == 0) return usage();
  std::uint64_t interval_days = 30;
  if (const char* i = args.get("interval-days")) {
    util::parse_u64(i, interval_days);
  }
  if (interval_days == 0) interval_days = 1;
  std::uint64_t threads = 0;
  if (const char* t = args.get("threads")) util::parse_u64(t, threads);
  const char* scale = args.get("scale", "paper");
  if (std::strcmp(scale, "paper") != 0 && std::strcmp(scale, "small") != 0) {
    return usage();
  }
  std::uint64_t port = 0;
  if (const char* p = args.get("port")) {
    if (!util::parse_u64(p, port) || port > 65535) return usage();
  }
  std::uint64_t workers = 2;
  if (const char* w = args.get("workers")) util::parse_u64(w, workers);
  if (workers == 0) workers = 1;

  core::IncrementalConfig config;
  config.params.seed = seed;
  config.rovista.scoring.min_vvps_per_as = 2;
  config.rovista.scoring.min_tnodes = 3;
  config.rovista.num_threads = static_cast<int>(threads);
  config.incremental = true;
  // Reachability serves traceroutes off published epochs, so the
  // query daemon always runs the snapshot engine.
  config.engine = snapshot::EngineMode::kSnapshot;
  if (std::strcmp(scale, "small") == 0) {
    config.params.topology.tier1_count = 4;
    config.params.topology.tier2_count = 14;
    config.params.topology.tier3_count = 36;
    config.params.topology.stub_count = 120;
    config.params.tnode_prefix_count = 4;
    config.params.measured_as_count = 12;
    config.params.hosts_per_measured_as = 3;
    config.params.collector_peer_count = 30;
    config.rovista.scoring.min_tnodes = 2;
  }

  util::Date start_date = config.params.start;
  if (const char* d = args.get("start")) util::Date::parse(d, start_date);
  const util::Date series_end = config.params.end;
  const auto round_date = [&](std::uint64_t i) {
    util::Date d = start_date + static_cast<int>(i * interval_days);
    if (d > series_end) d = series_end;
    return d;
  };

  if (args.has("checkpoint-dir")) {
    config.checkpoint_dir = args.get("checkpoint-dir", "");
    if (config.checkpoint_dir.empty()) return usage();
    std::uint64_t every = 1;
    if (const char* e = args.get("checkpoint-every")) {
      util::parse_u64(e, every);
    }
    config.checkpoint_every = static_cast<int>(every);
    // Same series-shape tag as cmd_longitudinal: a serve daemon resumes
    // checkpoints written by an equally-paced longitudinal series.
    persist::ByteWriter tag;
    tag.i64(start_date.days_since_epoch());
    tag.u64(interval_days);
    tag.u8(std::strcmp(scale, "small") == 0 ? 1 : 0);
    config.checkpoint_user_tag = persist::fnv1a64(tag.data());
  } else if (args.has("resume") || args.has("checkpoint-every")) {
    std::fprintf(stderr,
                 "error: --resume/--checkpoint-every need --checkpoint-dir\n");
    return usage();
  }
  if (args.has("archive")) {
    config.archive_dir = args.get("archive", "");
    if (config.archive_dir.empty()) return usage();
  }

  // Block the shutdown signals before any thread exists, so workers and
  // the round thread inherit the mask and only sigwait below sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  core::IncrementalLongitudinalRunner runner(config);
  std::uint64_t warn_depth = 0;
  if (const char* w = args.get("warn-depth")) util::parse_u64(w, warn_depth);
  if (warn_depth > 0) {
    runner.publisher().set_live_epoch_warn_depth(
        static_cast<long>(warn_depth));
  }

  auto feed = std::make_shared<serve::ScoreFeed>();
  std::uint64_t first_round = 0;
  if (args.has("resume")) {
    if (runner.resume_from_checkpoint()) {
      first_round = runner.completed_rounds();
      // Warm start: serve restored scores and trajectories immediately;
      // reachability waits for the first live epoch.
      feed->seed_from_store(runner.store());
      std::printf("resumed from checkpoint: %llu round(s) already done\n",
                  static_cast<unsigned long long>(first_round));
    } else {
      std::printf("no usable checkpoint — starting from scratch\n");
    }
  } else if (!config.archive_dir.empty()) {
    // Warm start off a previous run's RVLA archive: restored scores and
    // trajectories serve immediately; note the first live round rewrites
    // the archive from this process's own (empty) history, exactly as a
    // cold start would.
    if (feed->seed_from_archive(config.archive_dir)) {
      std::printf("seeded feed from archive %s\n",
                  config.archive_dir.c_str());
    }
  }

  serve::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.workers = static_cast<int>(workers);
  serve::Server server(server_options, feed);
  if (!server.start()) {
    std::fprintf(stderr, "error: could not start server\n");
    return 1;
  }
  // The machine-readable contract: with --port 0 this is the only way
  // to learn the kernel-assigned port. Flushed, so a pipe reader sees
  // it before the first (slow) round completes.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::atomic<int> rc{0};
  std::thread round_thread([&] {
    for (std::uint64_t i = first_round;
         i < rounds && !stop.load(std::memory_order_relaxed); ++i) {
      const core::RoundReport report = runner.run_round(round_date(i));
      feed->publish(report.date, report.round.scores,
                    runner.publisher().current());
      std::printf("ROUND %s ases=%zu live_epochs=%ld\n",
                  report.date.to_string().c_str(),
                  report.round.scores.size(),
                  runner.publisher().live_epochs());
      std::fflush(stdout);
    }
    if (const char* publish = args.get("publish")) {
      const auto written = core::publish_scores(runner.store(), publish);
      if (!written.has_value()) {
        std::fprintf(stderr, "error: could not write %s\n", publish);
        rc.store(1, std::memory_order_relaxed);
        return;
      }
      std::printf("PUBLISHED %s rounds=%zu\n", publish, *written);
      std::fflush(stdout);
    }
  });

  int sig = 0;
  sigwait(&sigs, &sig);
  stop.store(true, std::memory_order_relaxed);
  round_thread.join();
  server.stop();
  std::printf("SERVED connections=%llu frames=%llu batches=%llu\n",
              static_cast<unsigned long long>(
                  server.io().connections_accepted()),
              static_cast<unsigned long long>(server.io().frames_served()),
              static_cast<unsigned long long>(server.io().batches_served()));
  return rc.load(std::memory_order_relaxed);
}

int cmd_loadgen(const Args& args) {
  serve::LoadgenOptions options;
  std::uint64_t port = 0;
  if (const char* p = args.get("port")) util::parse_u64(p, port);
  if (port == 0 || port > 65535) return usage();
  options.port = static_cast<std::uint16_t>(port);
  options.host = args.get("host", "127.0.0.1");

  std::uint64_t u = 0;
  if (const char* v = args.get("requests")) {
    if (!util::parse_u64(v, options.requests)) return usage();
  }
  if (const char* v = args.get("connections")) {
    if (!util::parse_u64(v, u)) return usage();
    options.connections = static_cast<int>(u);
  }
  if (const char* v = args.get("threads")) {
    if (!util::parse_u64(v, u)) return usage();
    options.threads = static_cast<int>(u);
  }
  if (const char* v = args.get("pipeline")) {
    if (!util::parse_u64(v, u)) return usage();
    options.pipeline = static_cast<int>(u);
  }
  if (const char* v = args.get("rate")) {
    if (!util::parse_double(v, options.rate) || options.rate < 0.0) {
      return usage();
    }
  }
  const auto parse_fraction = [&](const char* flag, double& out) -> bool {
    const char* v = args.get(flag);
    if (v == nullptr) return true;
    return util::parse_double(v, out) && out >= 0.0 && out <= 1.0;
  };
  if (!parse_fraction("traj-fraction", options.trajectory_fraction) ||
      !parse_fraction("reach-fraction", options.reach_fraction)) {
    return usage();
  }
  if (const char* v = args.get("reach-dst")) {
    if (!util::parse_u64(v, u)) return usage();
    options.reach_dst = static_cast<std::uint32_t>(u);
  }
  if (const char* v = args.get("reach-port")) {
    if (!util::parse_u64(v, u)) return usage();
    options.reach_port = static_cast<std::uint16_t>(u);
  }
  if (const char* v = args.get("seed")) util::parse_u64(v, options.seed);
  if (const char* v = args.get("timeout-ms")) {
    if (!util::parse_u64(v, u)) return usage();
    options.timeout_ms = static_cast<int>(u);
  }
  const char* record = args.get("record");
  options.record = record != nullptr;

  const serve::LoadgenResult result = serve::run_loadgen(options);

  std::printf(
      "sent=%llu received=%llu ok=%llu no_data=%llu unknown_as=%llu "
      "bad_request=%llu transport_errors=%llu\n",
      static_cast<unsigned long long>(result.sent),
      static_cast<unsigned long long>(result.received),
      static_cast<unsigned long long>(result.ok),
      static_cast<unsigned long long>(result.no_data),
      static_cast<unsigned long long>(result.unknown_as),
      static_cast<unsigned long long>(result.bad_request),
      static_cast<unsigned long long>(result.transport_errors));
  std::printf("qps=%.0f p50_ms=%.3f p99_ms=%.3f max_ms=%.3f wall_s=%.3f\n",
              result.qps, result.p50_ms, result.p99_ms, result.max_ms,
              result.wall_s);
  std::printf("feed sequences observed: %llu..%llu\n",
              static_cast<unsigned long long>(result.min_epoch_sequence),
              static_cast<unsigned long long>(result.max_epoch_sequence));

  if (record != nullptr) {
    if (!serve::write_record_csv(result.records, record)) {
      std::fprintf(stderr, "error: could not write %s\n", record);
      return 1;
    }
    std::printf("recorded %zu score response(s) to %s\n",
                result.records.size(), record);
  }
  if (const char* json = args.get("json")) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: could not write %s\n", json);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sent\": %llu,\n"
                 "  \"received\": %llu,\n"
                 "  \"ok\": %llu,\n"
                 "  \"transport_errors\": %llu,\n"
                 "  \"qps\": %.1f,\n"
                 "  \"p50_ms\": %.4f,\n"
                 "  \"p99_ms\": %.4f,\n"
                 "  \"max_ms\": %.4f,\n"
                 "  \"wall_s\": %.4f\n"
                 "}\n",
                 static_cast<unsigned long long>(result.sent),
                 static_cast<unsigned long long>(result.received),
                 static_cast<unsigned long long>(result.ok),
                 static_cast<unsigned long long>(result.transport_errors),
                 result.qps, result.p50_ms, result.p99_ms, result.max_ms,
                 result.wall_s);
    std::fclose(f);
  }
  const bool clean = result.transport_errors == 0 &&
                     result.sent == options.requests &&
                     result.received == result.sent;
  return clean ? 0 : 1;
}

int cmd_feedcheck(const Args& args) {
  const char* record = args.get("record");
  const char* published = args.get("published");
  if (record == nullptr || published == nullptr) return usage();
  std::size_t checked = 0;
  std::string diag;
  if (!serve::verify_record_against_published(record, published, &checked,
                                              &diag)) {
    std::fprintf(stderr, "feedcheck FAILED: %s\n", diag.c_str());
    return 1;
  }
  std::printf("feedcheck ok: %zu recorded score(s) byte-identical to the "
              "published dataset\n",
              checked);
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "checkpoint") == 0) {
    if (argc < 3 || std::strcmp(argv[2], "inspect") != 0) return usage();
    return cmd_checkpoint_inspect(parse_args(argc, argv, 3));
  }
  const Args args = parse_args(argc, argv, 2);
  if (std::strcmp(argv[1], "measure") == 0) return cmd_measure(args);
  if (std::strcmp(argv[1], "query") == 0) return cmd_query(args);
  if (std::strcmp(argv[1], "audit") == 0) return cmd_audit(args);
  if (std::strcmp(argv[1], "longitudinal") == 0) {
    return cmd_longitudinal(args);
  }
  if (std::strcmp(argv[1], "analyze") == 0) return cmd_analyze(args);
  if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(args);
  if (std::strcmp(argv[1], "loadgen") == 0) return cmd_loadgen(args);
  if (std::strcmp(argv[1], "feedcheck") == 0) return cmd_feedcheck(args);
  return usage();
}

int main(int argc, char** argv) {
  // Bad input — an unreadable CAIDA file, a synthetic factor that
  // overflows the scenario address plan — surfaces as std::runtime_error
  // from the library; report it as a CLI error, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
