#include "incremental/longitudinal_engine.h"

#include <algorithm>
#include <utility>

#include "dataplane/fingerprint.h"
#include "incremental/dirty_prefix.h"
#include "persist/checkpoint_io.h"
#include "persist/wire.h"
#include "scan/measurement_client.h"
#include "util/logging.h"

namespace rovista::incremental {

using util::LogLevel;

namespace {

struct RoundInputs {
  std::vector<scan::Vvp> vvps;
  std::vector<scan::Tnode> tnodes;
};

// Acquisition mutates host state (probes advance IP-ID counters and
// background RNG streams), so it always runs on a throwaway world built
// fresh at the round date — never on the tracking world.
RoundInputs acquire_inputs(const scenario::ScenarioParams& params, Date date,
                           const core::RovistaConfig& config) {
  scenario::Scenario s(params);
  s.advance_to(date);
  scan::MeasurementClient client_a(s.plane(), s.client_as_a(),
                                   s.client_addr_a());
  scan::MeasurementClient client_b(s.plane(), s.client_as_b(),
                                   s.client_addr_b());
  core::Rovista rovista(s.plane(), client_a, client_b, config);
  const auto snapshot = s.collector().snapshot(s.routing());
  RoundInputs inputs;
  inputs.tnodes = rovista.acquire_tnodes(
      snapshot, s.current_vrps(), s.rov_reference_ases(s.current(), 10),
      s.non_rov_reference_ases(s.current(), 10));
  inputs.vvps = rovista.acquire_vvps(s.vvp_candidates());
  return inputs;
}

// Snapshot-engine acquisition: probe on an EpochReader of the round's
// published epoch instead of building a throwaway Scenario. The reader's
// plane is a pristine clone of the epoch template — exactly the host
// state a fresh world at this date would carry — and the non-probing
// inputs (collector feed list, vVP candidates, reference ASes) are
// date-deterministic scenario metadata read off the tracking world, so
// the acquired lists are bit-identical to the throwaway path; the
// equivalence suites hold both paths to that.
RoundInputs acquire_inputs_on_epoch(scenario::Scenario& world,
                                    snapshot::EpochRef epoch,
                                    const core::RovistaConfig& config) {
  const std::unique_ptr<snapshot::EpochReader> reader =
      snapshot::make_reader(std::move(epoch));
  core::Rovista rovista(reader->plane(), reader->client_a(),
                        reader->client_b(), config);
  const auto snapshot =
      world.collector().snapshot(reader->epoch().shared_routing());
  RoundInputs inputs;
  inputs.tnodes = rovista.acquire_tnodes(
      snapshot, world.current_vrps(),
      world.rov_reference_ases(world.current(), 10),
      world.non_rov_reference_ases(world.current(), 10));
  inputs.vvps = rovista.acquire_vvps(world.vvp_candidates());
  return inputs;
}

std::size_t count_inconclusive(
    const std::vector<core::PairObservation>& observations) {
  std::size_t n = 0;
  for (const core::PairObservation& obs : observations) {
    if (obs.verdict == core::FilteringVerdict::kInconclusive) ++n;
  }
  return n;
}

// The one VRP install path, shared by run_round and checkpoint replay:
// resume bit-identity rests on the replayed world evolving through the
// very same delta/dirty computation and install call as the original
// process did. `report` is optional (replay has none).
scenario::VrpInstaller make_vrp_installer(bool incremental,
                                          RoundReport* report) {
  return [incremental, report](bgp::RoutingSystem& routing,
                               const rpki::VrpSet& prev, rpki::VrpSet next) {
    const VrpDelta delta = VrpDeltaComputer::diff(prev, next);
    const DirtyPrefixTracker tracker(delta);
    const std::size_t touched = tracker.touched_announced(routing);
    std::vector<net::Ipv4Prefix> dirty =
        tracker.dirty_prefixes(prev, next, routing);
    if (report != nullptr) {
      report->vrp_announced = delta.announced.size();
      report->vrp_withdrawn = delta.withdrawn.size();
      report->touched_announced = touched;
      report->dirty_prefix_count = dirty.size();
    }
    if (incremental) {
      routing.apply_vrp_delta(std::move(next), dirty, delta.announced,
                              delta.withdrawn);
    } else {
      routing.set_vrps(std::move(next));
    }
  };
}

// Digest helpers: every field that can change measurement output feeds
// the writer. kDigestSchema bumps whenever the field set changes, so an
// old checkpoint meets a clean digest mismatch instead of a stale hash
// collision (docs/FORMATS.md, "Compatibility"). Fault knobs join the
// digest only when enabled — knob-0 configs keep producing the schema-2
// bytes, so their digests (and checkpoints) stay byte-identical to
// pre-fault builds.
constexpr std::uint8_t kDigestSchema = 2;        // 2: + slurm_fraction
constexpr std::uint8_t kDigestSchemaFaults = 3;  // 3: + fault knobs
constexpr std::uint8_t kDigestSchemaCaida = 4;   // 4: + caida topology path

void digest_fault_params(persist::ByteWriter& w, const faults::FaultParams& f) {
  w.f64(f.rp_failure_rate);
  w.f64(f.rp_divergence_fraction);
  w.f64(f.rtr_drop_rate);
  w.f64(f.rtr_corrupt_fraction);
  w.u32(static_cast<std::uint32_t>(f.rp_instance_count));
  w.u32(static_cast<std::uint32_t>(f.fault_window_days));
  w.u32(static_cast<std::uint32_t>(f.rtr_expire_days));
}

void digest_params(persist::ByteWriter& w,
                   const scenario::ScenarioParams& p) {
  w.u64(p.seed);
  w.u32(static_cast<std::uint32_t>(p.topology.tier1_count));
  w.u32(static_cast<std::uint32_t>(p.topology.tier2_count));
  w.u32(static_cast<std::uint32_t>(p.topology.tier3_count));
  w.u32(static_cast<std::uint32_t>(p.topology.stub_count));
  w.f64(p.topology.tier2_peer_prob);
  w.f64(p.topology.tier3_peer_prob);
  w.f64(p.topology.stub_multihome_prob);
  w.u32(p.topology.first_asn);
  w.i64(p.start.days_since_epoch());
  w.i64(p.end.days_since_epoch());
  w.f64(p.roa_fraction_start);
  w.f64(p.roa_fraction_end);
  w.f64(p.rov_end_tier1);
  w.f64(p.rov_end_tier2);
  w.f64(p.rov_end_tier3);
  w.f64(p.rov_end_stub);
  w.f64(p.exempt_customers_fraction);
  w.f64(p.prefer_valid_fraction);
  w.f64(p.slurm_fraction);
  w.u32(static_cast<std::uint32_t>(p.tnode_prefix_count));
  w.u32(static_cast<std::uint32_t>(p.tnode_hosts_per_prefix));
  w.u32(static_cast<std::uint32_t>(p.moas_invalid_count));
  w.u32(static_cast<std::uint32_t>(p.surge_invalid_count));
  w.u32(static_cast<std::uint32_t>(p.measured_as_count));
  w.u32(static_cast<std::uint32_t>(p.hosts_per_measured_as));
  w.f64(p.global_ipid_fraction);
  w.f64(p.background_pareto_xm);
  w.f64(p.background_pareto_alpha);
  w.f64(p.nonstationary_traffic_fraction);
  w.u32(static_cast<std::uint32_t>(p.collector_peer_count));
}

void digest_rovista(persist::ByteWriter& w, const core::RovistaConfig& c) {
  w.f64(c.experiment.probe_interval_s);
  w.u32(static_cast<std::uint32_t>(c.experiment.background_probes));
  w.u32(static_cast<std::uint32_t>(c.experiment.spoof_count));
  w.f64(c.experiment.wait_after_burst_s);
  w.u32(static_cast<std::uint32_t>(c.experiment.observe_probes));
  w.f64(c.experiment.tail_wait_s);
  w.u16(c.experiment.vvp_port);
  w.f64(c.experiment.detector.alpha);
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.max_p));
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.max_q));
  w.f64(c.experiment.detector.spike_packets);
  w.f64(c.experiment.detector.spike_stddev);
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.planned_index));
  w.u8(c.experiment.detector.check_residual_whiteness ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.vvp_protocol.probes_per_phase));
  w.f64(c.vvp_protocol.probe_interval_s);
  w.u32(static_cast<std::uint32_t>(c.vvp_protocol.burst_count));
  w.u16(c.vvp_protocol.target_port);
  w.f64(c.vvp_protocol.tail_wait_s);
  w.f64(c.tnode_protocol.rto_min_s);
  w.f64(c.tnode_protocol.rto_max_s);
  w.f64(c.tnode_protocol.observe_s);
  w.u32(static_cast<std::uint32_t>(c.scoring.min_vvps_per_as));
  w.u32(static_cast<std::uint32_t>(c.scoring.min_tnodes));
  w.f64(c.max_background_rate);
  w.u32(static_cast<std::uint32_t>(c.max_vvps_per_as));
  w.f64(c.tnode_reference_threshold);
  // num_threads deliberately excluded: output is thread-invariant and a
  // series may resume at a different parallelism.
}

}  // namespace

IncrementalLongitudinalRunner::IncrementalLongitudinalRunner(
    IncrementalConfig config)
    : config_(std::move(config)),
      publisher_(std::make_unique<snapshot::EpochPublisher>(config_.params)) {}

IncrementalLongitudinalRunner::~IncrementalLongitudinalRunner() {
  // Exit checkpoint: anything recorded since the last periodic write is
  // persisted so a clean shutdown never loses completed rounds. (A
  // crash loses at most checkpoint_every - 1 rounds.)
  if (!config_.checkpoint_dir.empty() && rounds_since_checkpoint_ > 0) {
    write_checkpoint();
  }
}

std::uint64_t IncrementalLongitudinalRunner::config_digest(
    const IncrementalConfig& config) {
  persist::ByteWriter w;
  const bool faulted = config.params.faults.enabled();
  const std::string& caida = config.params.topology.caida_path;
  // Like the fault knobs, the caida path joins the digest only when set,
  // so synthetic configs keep their schema-2/3 bytes. The digest covers
  // the *path*, not the file contents — swapping the file behind an
  // unchanged path invalidates nothing; use a fresh path per snapshot.
  w.u8(!caida.empty() ? kDigestSchemaCaida
                      : (faulted ? kDigestSchemaFaults : kDigestSchema));
  if (!caida.empty()) {
    w.u8(faulted ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(caida.size()));
    w.bytes({reinterpret_cast<const std::uint8_t*>(caida.data()),
             caida.size()});
  }
  digest_params(w, config.params);
  if (faulted) digest_fault_params(w, config.params.faults);
  digest_rovista(w, config.rovista);
  w.u8(config.incremental ? 1 : 0);
  return persist::fnv1a64(w.data());
}

persist::CheckpointState IncrementalLongitudinalRunner::checkpoint_state()
    const {
  persist::CheckpointState state;
  state.config_digest = config_digest(config_);
  state.user_tag = config_.checkpoint_user_tag;
  state.incremental = config_.incremental;
  state.have_round = have_round_;
  state.rounds = history_;
  state.vvps = vvps_;
  state.tnodes = tnodes_;
  state.cache_vvp_addrs.assign(cache_.vvp_addrs().begin(),
                               cache_.vvp_addrs().end());
  state.cache_tnode_addrs.assign(cache_.tnode_addrs().begin(),
                                 cache_.tnode_addrs().end());
  state.cache_entries.reserve(cache_.raw_entries().size());
  for (const std::optional<CacheEntry>& e : cache_.raw_entries()) {
    if (e.has_value()) {
      state.cache_entries.emplace_back(
          persist::CacheEntryState{e->fingerprint, e->observation});
    } else {
      state.cache_entries.emplace_back(std::nullopt);
    }
  }
  const scenario::Scenario& world = publisher_->world();
  state.vrps = VrpDeltaComputer::flatten(world.current_vrps());
  if (world.fault_chain() != nullptr) {
    state.faulted = true;
    state.fault_digest = world.fault_chain()->schedule().digest();
  }
  return state;
}

bool IncrementalLongitudinalRunner::restore(
    const persist::CheckpointState& state) {
  if (state.config_digest != config_digest(config_)) {
    util::log(LogLevel::kWarn,
              "checkpoint: config digest mismatch (different scenario/"
              "measurement parameters) — cold start");
    return false;
  }
  if (state.user_tag != config_.checkpoint_user_tag) {
    util::log(LogLevel::kWarn,
              "checkpoint: series tag mismatch (checkpoint belongs to a "
              "differently-shaped series) — cold start");
    return false;
  }
  if (state.incremental != config_.incremental) {
    util::log(LogLevel::kWarn,
              "checkpoint: incremental-mode mismatch — cold start");
    return false;
  }
  if (state.faulted != config_.params.faults.enabled()) {
    util::log(LogLevel::kWarn,
              "checkpoint: fault-injection mode mismatch — cold start");
    return false;
  }
  for (std::size_t i = 1; i < state.rounds.size(); ++i) {
    if (state.rounds[i].date < state.rounds[i - 1].date) {
      util::log(LogLevel::kWarn,
                "checkpoint: round dates not monotone — cold start");
      return false;
    }
  }

  // Replay the tracking world over the recorded dates, through the same
  // install path run_round uses. Deterministic and measurement-free:
  // only BGP/RP work, no probing.
  auto world = std::make_unique<scenario::Scenario>(config_.params);
  for (const persist::RoundRecord& r : state.rounds) {
    world->advance_to(r.date,
                      make_vrp_installer(config_.incremental, nullptr));
  }

  // Oracle check: the replayed relying-party output must equal the
  // snapshot taken when the checkpoint was written. flatten() is sorted
  // unique, so equality is positional.
  const std::vector<rpki::Vrp> replayed =
      VrpDeltaComputer::flatten(world->current_vrps());
  std::vector<rpki::Vrp> stored = state.vrps;
  std::sort(stored.begin(), stored.end());
  if (replayed != stored) {
    util::log(LogLevel::kWarn,
              "checkpoint: replayed VRP state disagrees with stored "
              "snapshot — cold start");
    return false;
  }

  // Fault oracle: the rebuilt world must carry the very fault schedule
  // the checkpoint was written under — including mid-failure-window
  // resumes, since the schedule is precomputed and date-independent.
  if (state.faulted) {
    const faults::FaultChain* chain = world->fault_chain();
    if (chain == nullptr ||
        chain->schedule().digest() != state.fault_digest) {
      util::log(LogLevel::kWarn,
                "checkpoint: replayed fault schedule disagrees with "
                "stored digest — cold start");
      return false;
    }
  }

  // All checks passed — install: the publisher adopts the replayed
  // world as its build world (nothing published yet; the next round
  // publishes as usual). Nothing below can fail in a way that breaks
  // soundness: a cache shape mismatch just clears the cache, which only
  // costs recomputation.
  publisher_ = std::make_unique<snapshot::EpochPublisher>(std::move(world));
  store_ = core::LongitudinalStore();
  for (const persist::RoundRecord& r : state.rounds) {
    std::vector<core::AsScore> scores;
    scores.reserve(r.scores.size());
    for (const auto& [asn, score] : r.scores) {
      core::AsScore s;
      s.asn = asn;
      s.score = score;
      scores.push_back(s);
    }
    store_.record(r.date, scores);
    if (state.faulted) store_.record_health(r.date, r.health);
  }
  vvps_ = state.vvps;
  tnodes_ = state.tnodes;
  have_round_ = state.have_round;
  history_ = state.rounds;
  // run_round keeps views_digest_ equal to the latest round's digest
  // (reuse is only ever granted while it is unchanged), so the replayed
  // world's digest is exactly the one the restored lists were last
  // validated against. Zero — hence a no-op — in fault-free worlds.
  views_digest_ = publisher_->world().effective_views_digest();

  std::vector<std::optional<CacheEntry>> entries;
  entries.reserve(state.cache_entries.size());
  for (const std::optional<persist::CacheEntryState>& e :
       state.cache_entries) {
    if (e.has_value()) {
      entries.emplace_back(CacheEntry{e->fingerprint, e->observation});
    } else {
      entries.emplace_back(std::nullopt);
    }
  }
  if (!cache_.restore(state.cache_vvp_addrs, state.cache_tnode_addrs,
                      std::move(entries))) {
    util::log(LogLevel::kWarn,
              "checkpoint: score-cache shape mismatch — cache dropped, "
              "next round recomputes in full");
  }
  rounds_since_checkpoint_ = 0;
  // Any open archive may describe rounds the checkpoint does not know
  // about (or vice versa); the next round's first maybe_archive()
  // rewrites it from the restored history, re-synchronizing the two.
  archive_writer_.reset();
  return true;
}

bool IncrementalLongitudinalRunner::resume_from_checkpoint() {
  if (config_.checkpoint_dir.empty()) return false;
  const auto state = persist::load_checkpoint_file(config_.checkpoint_dir);
  if (!state.has_value()) {
    util::log(LogLevel::kWarn, "checkpoint: no usable checkpoint in " +
                                   config_.checkpoint_dir + " — cold start");
    return false;
  }
  return restore(*state);
}

bool IncrementalLongitudinalRunner::write_checkpoint() {
  if (config_.checkpoint_dir.empty()) return false;
  const bool ok =
      persist::write_checkpoint_file(config_.checkpoint_dir,
                                     checkpoint_state());
  if (ok) rounds_since_checkpoint_ = 0;
  return ok;
}

void IncrementalLongitudinalRunner::maybe_archive() {
  if (config_.archive_dir.empty() || history_.empty()) return;
  const bool faulted = world().fault_chain() != nullptr;
  std::string error;
  if (!archive_writer_.has_value()) {
    // First append of this runner's life: rewrite the whole archive
    // from the recorded history. A cold start begins fresh; a resumed
    // run truncates rounds a crash left beyond the checkpoint; either
    // way the archive ends up byte-identical to one grown round by
    // round from the same history (encode is canonical).
    std::vector<analytics::RvlaFrame> frames;
    frames.reserve(history_.size());
    for (const persist::RoundRecord& r : history_) {
      frames.push_back(
          analytics::make_frame(r.date, r.scores, faulted, r.health));
    }
    archive_writer_ =
        analytics::RvlaWriter::create(config_.archive_dir, frames, &error);
    if (!archive_writer_.has_value()) {
      util::log(LogLevel::kWarn,
                "archive: " + error);
    }
    return;
  }
  const persist::RoundRecord& last = history_.back();
  if (!archive_writer_->append(
          analytics::make_frame(last.date, last.scores, faulted,
                                last.health),
          &error)) {
    util::log(LogLevel::kWarn, "archive: " + error);
    archive_writer_.reset();
  }
}

void IncrementalLongitudinalRunner::maybe_checkpoint() {
  ++rounds_since_checkpoint_;
  if (config_.checkpoint_dir.empty() || config_.checkpoint_every <= 0) {
    return;
  }
  if (rounds_since_checkpoint_ >=
      static_cast<std::size_t>(config_.checkpoint_every)) {
    write_checkpoint();
  }
}

RoundReport IncrementalLongitudinalRunner::run_round(Date date) {
  RoundReport report;
  report.date = date;

  // 1. Advance the tracking world, installing the new VRPs by delta
  // (the shared installer also fills the delta fields of the report).
  const scenario::AdvanceStats stats = publisher_->advance_to(
      date, make_vrp_installer(config_.incremental, &report));
  report.events = stats.events();

  // The round's epoch: one immutable deep copy of the fully-advanced
  // tracking world (VRPs installed, fault views bound), shared by the
  // discovery pass and every measurement worker below. The previous
  // round's epoch is released here; it dies once its last reader does.
  const bool use_snapshots = config_.engine == snapshot::EngineMode::kSnapshot;
  snapshot::EpochRef epoch;
  if (use_snapshots) epoch = publisher_->publish();

  // Round health: only fault-injection worlds record it, keeping the
  // store (and everything published from it) byte-identical otherwise.
  if (world().fault_chain() != nullptr) {
    const faults::DegradationStats& d = world().degradation();
    report.health.stale_ases = d.stale_ases;
    report.health.expired_ases = d.expired_ases;
    report.health.diverged_ases = d.diverged_ases;
    report.health.max_staleness_days = d.max_staleness_days;
    report.health.error_reports = d.error_reports;
    store_.record_health(date, report.health);
  }

  // 2. Discovery: reuse the previous round's lists only when nothing the
  // acquisition pipeline reads can have changed — no timeline events, no
  // announced prefix touched by the VRP delta, and (under fault
  // injection) no change to any per-AS effective view. The last guard
  // matters because a failure window opening or stale data crossing the
  // expire threshold flips reference-AS ROV behaviour with a VRP delta
  // of exactly zero.
  const bool incremental = config_.incremental;
  const std::uint64_t views_digest = world().effective_views_digest();
  const bool can_reuse_discovery = incremental && have_round_ &&
                                   report.events == 0 &&
                                   report.touched_announced == 0 &&
                                   views_digest == views_digest_;
  if (!can_reuse_discovery) {
    RoundInputs inputs =
        use_snapshots
            ? acquire_inputs_on_epoch(world(), epoch, config_.rovista)
            : acquire_inputs(config_.params, date, config_.rovista);
    vvps_ = std::move(inputs.vvps);
    tnodes_ = std::move(inputs.tnodes);
  }
  views_digest_ = views_digest;
  report.discovery_reused = can_reuse_discovery;

  const std::size_t v_count = vvps_.size();
  const std::size_t t_count = tnodes_.size();
  report.total_rows = v_count;
  report.total_pairs = v_count * t_count;

  const core::ParallelRoundRunner runner(
      use_snapshots ? snapshot::make_reader_factory(epoch)
                    : scenario::make_replica_factory(config_.params, date),
      {config_.rovista.experiment, config_.rovista.scoring,
       config_.rovista.num_threads});

  if (!incremental) {
    report.matrix_reset = true;
    report.dirty_rows = v_count;
    report.executed_pairs = report.total_pairs;
    report.round = runner.run(vvps_, tnodes_);
    store_.record(date, report.round.scores);
    persist::RoundRecord record;
    record.date = date;
    record.health = report.health;
    record.scores.reserve(report.round.scores.size());
    for (const core::AsScore& s : report.round.scores) {
      record.scores.emplace_back(s.asn, s.score);
    }
    history_.push_back(std::move(record));
    have_round_ = true;
    maybe_archive();
    maybe_checkpoint();
    return report;
  }

  // 3. Fingerprint every pair on the tracking world and find dirty rows.
  scenario::Scenario& tracking = world();
  const topology::Asn client_as = tracking.client_as_a();
  const net::Ipv4Address client_addr = tracking.client_addr_a();
  dataplane::DataPlane& plane = tracking.plane();

  std::vector<std::uint64_t> fingerprints(v_count * t_count, 0);
  for (std::size_t v = 0; v < v_count; ++v) {
    for (std::size_t t = 0; t < t_count; ++t) {
      fingerprints[v * t_count + t] = dataplane::pair_fingerprint(
          plane, client_as, client_addr, vvps_[v].asn, vvps_[v].address,
          plane.as_of(tnodes_[t].address), tnodes_[t].address);
    }
  }

  const bool cache_usable =
      cache_.matches(vvps_, tnodes_) || cache_.recall(vvps_, tnodes_);
  if (!cache_usable) {
    cache_.reset(vvps_, tnodes_);
    report.matrix_reset = true;
  }

  std::vector<std::size_t> dirty_rows;
  dirty_rows.reserve(v_count);
  for (std::size_t v = 0; v < v_count; ++v) {
    bool row_dirty = !cache_usable;
    for (std::size_t t = 0; !row_dirty && t < t_count; ++t) {
      const CacheEntry* entry = cache_.lookup(v, t);
      row_dirty =
          entry == nullptr || entry->fingerprint != fingerprints[v * t_count + t];
    }
    if (row_dirty) dirty_rows.push_back(v);
  }
  report.dirty_rows = dirty_rows.size();
  report.executed_pairs = dirty_rows.size() * t_count;
  report.reused_pairs = report.total_pairs - report.executed_pairs;

  // 4. Execute dirty rows in their canonical slots; merge cached
  // observations for the clean rows.
  core::MeasurementRound round;
  round.observations.resize(v_count * t_count);
  round.experiments_run = v_count * t_count;
  if (round.experiments_run == 0) round.observations.clear();

  runner.run_rows(vvps_, tnodes_, dirty_rows, round.observations);

  std::size_t next_dirty = 0;
  for (std::size_t v = 0; v < v_count; ++v) {
    const bool executed =
        next_dirty < dirty_rows.size() && dirty_rows[next_dirty] == v;
    if (executed) {
      ++next_dirty;
      for (std::size_t t = 0; t < t_count; ++t) {
        cache_.store(v, t, fingerprints[v * t_count + t],
                     round.observations[v * t_count + t]);
      }
    } else {
      for (std::size_t t = 0; t < t_count; ++t) {
        round.observations[v * t_count + t] =
            cache_.lookup(v, t)->observation;
      }
    }
  }

  round.inconclusive = count_inconclusive(round.observations);
  round.scores =
      core::aggregate_scores(round.observations, config_.rovista.scoring);
  store_.record(date, round.scores);
  persist::RoundRecord record;
  record.date = date;
  record.health = report.health;
  record.scores.reserve(round.scores.size());
  for (const core::AsScore& s : round.scores) {
    record.scores.emplace_back(s.asn, s.score);
  }
  history_.push_back(std::move(record));
  report.round = std::move(round);
  have_round_ = true;
  maybe_archive();
  maybe_checkpoint();
  return report;
}

}  // namespace rovista::incremental
