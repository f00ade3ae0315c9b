// The incremental engine's strict contract (incremental/
// longitudinal_engine.h): every round's MeasurementRound — observations,
// scores, counters — is bit-identical to a from-scratch full recompute
// at that date, for any thread count, and the published CSV datasets
// match byte for byte. Also pins that the machinery actually engages:
// a repeated date reuses everything.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/incremental_runner.h"
#include "core/publish.h"
#include "persist/checkpoint.h"
#include "persist/wire.h"
#include "incremental/dirty_prefix.h"
#include "incremental/vrp_delta.h"
#include "round_fixture.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;

std::vector<util::Date> round_dates(const scenario::ScenarioParams& params) {
  // Spread over the window so the timeline contributes ROV enablements
  // and announcement churn between rounds.
  return {params.start + 150, params.start + 171, params.start + 215};
}

core::IncrementalConfig engine_config(bool incremental, int num_threads) {
  core::IncrementalConfig config;
  config.params = testfx::round_params();
  const core::RovistaConfig rovista = testfx::round_config();
  config.rovista = rovista;
  config.rovista.num_threads = num_threads;
  config.incremental = incremental;
  return config;
}

void expect_bit_identical(const core::MeasurementRound& a,
                          const core::MeasurementRound& b,
                          const char* label) {
  EXPECT_EQ(a.experiments_run, b.experiments_run) << label;
  EXPECT_EQ(a.inconclusive, b.inconclusive) << label;
  ASSERT_EQ(a.observations.size(), b.observations.size()) << label;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const core::PairObservation& x = a.observations[i];
    const core::PairObservation& y = b.observations[i];
    ASSERT_EQ(x.vvp_as, y.vvp_as) << label << " observation " << i;
    ASSERT_EQ(x.vvp.value(), y.vvp.value()) << label << " observation " << i;
    ASSERT_EQ(x.tnode.value(), y.tnode.value())
        << label << " observation " << i;
    ASSERT_EQ(x.verdict, y.verdict) << label << " observation " << i;
  }
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    const core::AsScore& x = a.scores[i];
    const core::AsScore& y = b.scores[i];
    ASSERT_EQ(x.asn, y.asn) << label;
    ASSERT_EQ(std::memcmp(&x.score, &y.score, sizeof(double)), 0)
        << label << " AS" << x.asn << ": " << x.score << " vs " << y.score;
    ASSERT_EQ(x.vvp_count, y.vvp_count) << label;
    ASSERT_EQ(x.tnodes_consistent, y.tnodes_consistent) << label;
    ASSERT_EQ(x.tnodes_outbound, y.tnodes_outbound) << label;
    ASSERT_EQ(x.tnodes_inconsistent, y.tnodes_inconsistent) << label;
  }
}

std::map<std::string, std::string> read_dir(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

class IncrementalRound : public ::testing::Test {
 protected:
  // One full-recompute baseline per date, shared across the per-thread-
  // count test cases.
  static void SetUpTestSuite() {
    baseline_ = new core::IncrementalLongitudinalRunner(
        engine_config(/*incremental=*/false, /*num_threads=*/0));
    baseline_rounds_ = new std::vector<core::RoundReport>();
    for (const util::Date date : round_dates(baseline_->config().params)) {
      baseline_rounds_->push_back(baseline_->run_round(date));
    }
  }

  static void TearDownTestSuite() {
    delete baseline_rounds_;
    delete baseline_;
    baseline_rounds_ = nullptr;
    baseline_ = nullptr;
  }

  static void expect_incremental_matches_baseline(int num_threads) {
    core::IncrementalLongitudinalRunner runner(
        engine_config(/*incremental=*/true, num_threads));
    const auto dates = round_dates(runner.config().params);
    for (std::size_t i = 0; i < dates.size(); ++i) {
      const core::RoundReport report = runner.run_round(dates[i]);
      const std::string label = dates[i].to_string() + " @ " +
                                std::to_string(num_threads) + " threads";
      expect_bit_identical((*baseline_rounds_)[i].round, report.round,
                           label.c_str());
    }
  }

  static core::IncrementalLongitudinalRunner* baseline_;
  static std::vector<core::RoundReport>* baseline_rounds_;
};

core::IncrementalLongitudinalRunner* IncrementalRound::baseline_ = nullptr;
std::vector<core::RoundReport>* IncrementalRound::baseline_rounds_ = nullptr;

TEST_F(IncrementalRound, FixtureIsNonTrivial) {
  ASSERT_EQ(baseline_rounds_->size(), 3u);
  for (const core::RoundReport& report : *baseline_rounds_) {
    EXPECT_GE(report.total_rows, 9u);
    EXPECT_GT(report.total_pairs, 0u);
    EXPECT_FALSE(report.round.scores.empty());
  }
  // The window between rounds must exercise real change, or the
  // incremental comparison would be vacuous.
  EXPECT_GT((*baseline_rounds_)[1].events + (*baseline_rounds_)[1].vrp_announced +
                (*baseline_rounds_)[2].events +
                (*baseline_rounds_)[2].vrp_announced,
            0u);
}

TEST_F(IncrementalRound, SerialMatchesFullRecompute) {
  expect_incremental_matches_baseline(1);
}

TEST_F(IncrementalRound, TwoThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(2);
}

TEST_F(IncrementalRound, FourThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(4);
}

TEST_F(IncrementalRound, EightThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(8);
}

TEST_F(IncrementalRound, PublishedDatasetsAreByteIdentical) {
  core::IncrementalLongitudinalRunner runner(
      engine_config(/*incremental=*/true, /*num_threads=*/4));
  for (const util::Date date : round_dates(runner.config().params)) {
    runner.run_round(date);
  }

  const auto tmp = std::filesystem::temp_directory_path();
  const auto full_dir = tmp / "rovista_incr_test_full";
  const auto incr_dir = tmp / "rovista_incr_test_incr";
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(incr_dir);
  ASSERT_TRUE(core::publish_scores(baseline_->store(), full_dir.string())
                  .has_value());
  ASSERT_TRUE(
      core::publish_scores(runner.store(), incr_dir.string()).has_value());

  const auto full_files = read_dir(full_dir);
  const auto incr_files = read_dir(incr_dir);
  EXPECT_EQ(full_files, incr_files);  // same file names, same bytes

  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(incr_dir);
}

// ---------- SLURM scenarios ----------
//
// Same contract, harder world: a third of the ROV deployers carry RFC
// 8416 local exceptions, so every VRP install must run through the
// per-view dirty-set path of RoutingSystem::apply_vrp_delta instead of
// the (removed) invalidate-everything fallback.

core::IncrementalConfig slurm_engine_config(bool incremental,
                                            int num_threads) {
  core::IncrementalConfig config = engine_config(incremental, num_threads);
  config.params.slurm_fraction = 0.35;
  return config;
}

// The engine's install path, replicated so a test can drive the tracking
// world directly and observe cache/view state between rounds.
scenario::VrpInstaller delta_installer(std::size_t* delta_size) {
  return [delta_size](bgp::RoutingSystem& routing, const rpki::VrpSet& prev,
                      rpki::VrpSet next) {
    const incremental::VrpDelta delta =
        incremental::VrpDeltaComputer::diff(prev, next);
    const incremental::DirtyPrefixTracker tracker(delta);
    const std::vector<net::Ipv4Prefix> dirty =
        tracker.dirty_prefixes(prev, next, routing);
    if (delta_size != nullptr) {
      *delta_size = delta.announced.size() + delta.withdrawn.size();
    }
    routing.apply_vrp_delta(std::move(next), dirty, delta.announced,
                            delta.withdrawn);
  };
}

class SlurmIncrementalRound : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    baseline_ = new core::IncrementalLongitudinalRunner(
        slurm_engine_config(/*incremental=*/false, /*num_threads=*/0));
    baseline_rounds_ = new std::vector<core::RoundReport>();
    for (const util::Date date : round_dates(baseline_->config().params)) {
      baseline_rounds_->push_back(baseline_->run_round(date));
    }
  }

  static void TearDownTestSuite() {
    delete baseline_rounds_;
    delete baseline_;
    baseline_rounds_ = nullptr;
    baseline_ = nullptr;
  }

  static void expect_incremental_matches_baseline(int num_threads) {
    core::IncrementalLongitudinalRunner runner(
        slurm_engine_config(/*incremental=*/true, num_threads));
    const auto dates = round_dates(runner.config().params);
    for (std::size_t i = 0; i < dates.size(); ++i) {
      const core::RoundReport report = runner.run_round(dates[i]);
      const std::string label = "slurm " + dates[i].to_string() + " @ " +
                                std::to_string(num_threads) + " threads";
      expect_bit_identical((*baseline_rounds_)[i].round, report.round,
                           label.c_str());
    }
  }

  static core::IncrementalLongitudinalRunner* baseline_;
  static std::vector<core::RoundReport>* baseline_rounds_;
};

core::IncrementalLongitudinalRunner* SlurmIncrementalRound::baseline_ =
    nullptr;
std::vector<core::RoundReport>* SlurmIncrementalRound::baseline_rounds_ =
    nullptr;

TEST_F(SlurmIncrementalRound, FixtureHasSlurmBearingPolicies) {
  // The comparison would be vacuous if no AS actually carried exceptions
  // by the first measured date.
  const core::IncrementalConfig config = slurm_engine_config(false, 0);
  scenario::Scenario world(config.params);
  world.advance_to(round_dates(config.params).front());
  std::size_t slurm_ases = 0;
  for (const auto asn : world.graph().all_asns()) {
    if (world.routing().policy(asn).has_slurm()) ++slurm_ases;
  }
  EXPECT_GT(slurm_ases, 0u);
  for (const core::RoundReport& report : *baseline_rounds_) {
    EXPECT_GT(report.total_pairs, 0u);
    EXPECT_FALSE(report.round.scores.empty());
  }
}

TEST_F(SlurmIncrementalRound, SerialMatchesFullRecompute) {
  expect_incremental_matches_baseline(1);
}

TEST_F(SlurmIncrementalRound, TwoThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(2);
}

TEST_F(SlurmIncrementalRound, FourThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(4);
}

TEST_F(SlurmIncrementalRound, EightThreadsMatchFullRecompute) {
  expect_incremental_matches_baseline(8);
}

TEST_F(SlurmIncrementalRound, PublishedDatasetsAreByteIdentical) {
  core::IncrementalLongitudinalRunner runner(
      slurm_engine_config(/*incremental=*/true, /*num_threads=*/4));
  for (const util::Date date : round_dates(runner.config().params)) {
    runner.run_round(date);
  }
  const auto tmp = std::filesystem::temp_directory_path();
  const auto full_dir = tmp / "rovista_slurm_test_full";
  const auto incr_dir = tmp / "rovista_slurm_test_incr";
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(incr_dir);
  ASSERT_TRUE(core::publish_scores(baseline_->store(), full_dir.string())
                  .has_value());
  ASSERT_TRUE(
      core::publish_scores(runner.store(), incr_dir.string()).has_value());
  EXPECT_EQ(read_dir(full_dir), read_dir(incr_dir));
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(incr_dir);
}

TEST_F(SlurmIncrementalRound, DeltaInstallKeepsCacheAndViews) {
  // Direct proof the fallback is gone: across a VRP delta on a day with
  // no timeline events, converged routes stay cached and the
  // materialized SLURM views survive (invalidate_all + view clearing
  // would zero both).
  core::IncrementalLongitudinalRunner runner(
      slurm_engine_config(/*incremental=*/true, /*num_threads=*/1));
  const auto dates = round_dates(runner.config().params);
  runner.run_round(dates[0]);

  bgp::RoutingSystem& routing = runner.world().routing();
  ASSERT_GT(routing.cached_prefixes(), 0u);
  ASSERT_GT(routing.slurm_view_count(), 0u);

  std::size_t delta_size = 0;
  const scenario::VrpInstaller installer = delta_installer(&delta_size);
  util::Date date = dates[0];
  const util::Date limit = runner.config().params.end;
  bool saw_quiet_delta = false;
  while (!saw_quiet_delta && date < limit) {
    date = date + 1;
    // Event days legitimately drop cached routes (policy churn with
    // SLURM configured invalidates everything); re-warm a handful so a
    // quiet-day delta install has state to preserve.
    if (routing.cached_prefixes() == 0) {
      const auto prefixes = routing.all_prefixes();
      for (std::size_t i = 0; i < prefixes.size() && i < 8; ++i) {
        (void)routing.routes_for(prefixes[i]);
      }
    }
    const std::size_t views_before = routing.slurm_view_count();
    const scenario::AdvanceStats stats =
        runner.world().advance_to(date, installer);
    if (stats.events() != 0) continue;  // policy churn clears caches
    EXPECT_EQ(routing.slurm_view_count(), views_before);
    if (delta_size > 0) {
      EXPECT_GT(routing.cached_prefixes(), 0u)
          << "delta install on " << date.to_string()
          << " wiped the route cache";
      saw_quiet_delta = true;
    }
  }
  EXPECT_TRUE(saw_quiet_delta)
      << "no event-free day with a VRP delta inside the window";
}

TEST_F(SlurmIncrementalRound, CheckpointResumeMatchesUninterrupted) {
  // Two rounds, checkpoint, resume in a new runner at a different thread
  // count, final round bit-identical and the whole published series
  // byte-identical to the full-recompute baseline.
  core::IncrementalLongitudinalRunner partial(
      slurm_engine_config(/*incremental=*/true, /*num_threads=*/2));
  const auto dates = round_dates(partial.config().params);
  partial.run_round(dates[0]);
  partial.run_round(dates[1]);
  const persist::CheckpointState state = partial.checkpoint_state();

  core::IncrementalLongitudinalRunner resumed(
      slurm_engine_config(/*incremental=*/true, /*num_threads=*/4));
  ASSERT_TRUE(resumed.restore(state));
  EXPECT_EQ(resumed.completed_rounds(), 2u);
  const core::RoundReport last = resumed.run_round(dates[2]);
  expect_bit_identical((*baseline_rounds_)[2].round, last.round,
                       "slurm resume");

  const auto tmp = std::filesystem::temp_directory_path();
  const auto full_dir = tmp / "rovista_slurm_resume_full";
  const auto res_dir = tmp / "rovista_slurm_resume_incr";
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(res_dir);
  ASSERT_TRUE(core::publish_scores(baseline_->store(), full_dir.string())
                  .has_value());
  ASSERT_TRUE(
      core::publish_scores(resumed.store(), res_dir.string()).has_value());
  EXPECT_EQ(read_dir(full_dir), read_dir(res_dir));
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(res_dir);
}

// ---------- Fault-knob zero golden regression ----------
//
// The fault-injection knobs (ScenarioParams::faults) must be RNG-stream
// gated exactly like --slurm-fraction: with every knob at its default 0,
// the published CSVs, the RVCP checkpoint container bytes, and the
// engine config digest are pinned byte-for-byte to the pre-fault build,
// at every thread count. The constants below were captured from the
// build immediately before the fault layer landed; any drift means the
// gating leaked into a default world.

std::uint64_t digest_string(std::uint64_t h, const std::string& bytes) {
  return persist::fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
      h);
}

std::uint64_t digest_published_dir(const std::filesystem::path& dir) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, contents] : read_dir(dir)) {  // sorted by name
    h = digest_string(h, name);
    h = digest_string(h, contents);
  }
  return h;
}

constexpr std::uint64_t kGoldenPublishDigest = 0xc298de19204978e2ull;
constexpr std::uint64_t kGoldenCheckpointDigest = 0xc5709d22511d4b71ull;
constexpr std::uint64_t kGoldenConfigDigest = 0xb84dfbbc72591e94ull;

TEST(FaultKnobZeroIncrementalRound, GoldenBytesPinnedAtAllThreadCounts) {
  for (const int threads : {1, 2, 4, 8}) {
    const core::IncrementalConfig config =
        engine_config(/*incremental=*/true, threads);
    core::IncrementalLongitudinalRunner runner(config);
    for (const util::Date date : round_dates(config.params)) {
      runner.run_round(date);
    }

    const auto dir = std::filesystem::temp_directory_path() /
                     ("rovista_knob0_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(core::publish_scores(runner.store(), dir.string()).has_value());
    const std::uint64_t publish_digest = digest_published_dir(dir);
    std::filesystem::remove_all(dir);

    const std::vector<std::uint8_t> checkpoint =
        persist::encode_checkpoint(runner.checkpoint_state());
    const std::uint64_t checkpoint_digest =
        persist::fnv1a64(std::span<const std::uint8_t>(checkpoint));
    const std::uint64_t config_digest =
        core::IncrementalLongitudinalRunner::config_digest(config);

    char actual[128];
    std::snprintf(actual, sizeof actual,
                  "publish=0x%016llx checkpoint=0x%016llx config=0x%016llx",
                  static_cast<unsigned long long>(publish_digest),
                  static_cast<unsigned long long>(checkpoint_digest),
                  static_cast<unsigned long long>(config_digest));
    EXPECT_EQ(publish_digest, kGoldenPublishDigest)
        << threads << " threads: " << actual;
    EXPECT_EQ(checkpoint_digest, kGoldenCheckpointDigest)
        << threads << " threads: " << actual;
    EXPECT_EQ(config_digest, kGoldenConfigDigest)
        << threads << " threads: " << actual;
  }
}

// ---------- Engine equivalence (epoch-snapshot vs replica) ----------
//
// The epoch-snapshot engine (snapshot/world_source.h) is a pure
// execution-strategy swap: one frozen published world shared by all
// readers instead of a private replica per worker. Equivalence is
// byte-level — identical rounds, identical published CSV bytes,
// identical RVCP checkpoint container bytes — and checkpoints must
// cross engines, which is why the engine mode stays out of the config
// digest (like num_threads).

core::IncrementalConfig engine_mode_config(snapshot::EngineMode mode,
                                           int num_threads) {
  core::IncrementalConfig config =
      engine_config(/*incremental=*/true, num_threads);
  config.engine = mode;
  return config;
}

TEST(EngineEquivalence, SeriesCsvAndCheckpointBytesMatch) {
  core::IncrementalLongitudinalRunner snapshot_runner(
      engine_mode_config(snapshot::EngineMode::kSnapshot, /*num_threads=*/4));
  core::IncrementalLongitudinalRunner replica_runner(
      engine_mode_config(snapshot::EngineMode::kReplica, /*num_threads=*/4));
  const auto dates = round_dates(snapshot_runner.config().params);
  for (const util::Date date : dates) {
    const core::RoundReport snap = snapshot_runner.run_round(date);
    const core::RoundReport repl = replica_runner.run_round(date);
    const std::string label = "engines @ " + date.to_string();
    expect_bit_identical(snap.round, repl.round, label.c_str());
  }

  const auto tmp = std::filesystem::temp_directory_path();
  const auto snap_dir = tmp / "rovista_engine_snap";
  const auto repl_dir = tmp / "rovista_engine_repl";
  std::filesystem::remove_all(snap_dir);
  std::filesystem::remove_all(repl_dir);
  ASSERT_TRUE(core::publish_scores(snapshot_runner.store(), snap_dir.string())
                  .has_value());
  ASSERT_TRUE(core::publish_scores(replica_runner.store(), repl_dir.string())
                  .has_value());
  EXPECT_EQ(read_dir(snap_dir), read_dir(repl_dir));
  std::filesystem::remove_all(snap_dir);
  std::filesystem::remove_all(repl_dir);

  // RVCP payloads are engine-invariant down to the container bytes...
  EXPECT_EQ(persist::encode_checkpoint(snapshot_runner.checkpoint_state()),
            persist::encode_checkpoint(replica_runner.checkpoint_state()));
  // ...which requires the engine mode to be excluded from the digest.
  EXPECT_EQ(core::IncrementalLongitudinalRunner::config_digest(
                engine_mode_config(snapshot::EngineMode::kSnapshot, 4)),
            core::IncrementalLongitudinalRunner::config_digest(
                engine_mode_config(snapshot::EngineMode::kReplica, 4)));
}

TEST(EngineEquivalence, CheckpointCrossesEngines) {
  // Two rounds under the replica engine, checkpoint, resume under the
  // snapshot engine at a different thread count: the final round and
  // the whole published series must be byte-identical to an
  // uninterrupted snapshot-engine run.
  core::IncrementalLongitudinalRunner uninterrupted(
      engine_mode_config(snapshot::EngineMode::kSnapshot, /*num_threads=*/4));
  const auto dates = round_dates(uninterrupted.config().params);
  std::vector<core::RoundReport> reference;
  for (const util::Date date : dates) {
    reference.push_back(uninterrupted.run_round(date));
  }

  core::IncrementalLongitudinalRunner partial(
      engine_mode_config(snapshot::EngineMode::kReplica, /*num_threads=*/2));
  partial.run_round(dates[0]);
  partial.run_round(dates[1]);

  core::IncrementalLongitudinalRunner resumed(
      engine_mode_config(snapshot::EngineMode::kSnapshot, /*num_threads=*/8));
  ASSERT_TRUE(resumed.restore(partial.checkpoint_state()));
  EXPECT_EQ(resumed.completed_rounds(), 2u);
  const core::RoundReport last = resumed.run_round(dates[2]);
  expect_bit_identical(reference[2].round, last.round, "cross-engine resume");

  const auto tmp = std::filesystem::temp_directory_path();
  const auto ref_dir = tmp / "rovista_xengine_ref";
  const auto res_dir = tmp / "rovista_xengine_res";
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(res_dir);
  ASSERT_TRUE(core::publish_scores(uninterrupted.store(), ref_dir.string())
                  .has_value());
  ASSERT_TRUE(
      core::publish_scores(resumed.store(), res_dir.string()).has_value());
  EXPECT_EQ(read_dir(ref_dir), read_dir(res_dir));
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(res_dir);
}

// A discovery list that flaps back to the one two rounds ago takes that
// matrix back from the score cache instead of re-running every row.
// This 593-AS world's tNode list changes at the second date and returns
// at the third; every round must still equal a full recompute.
TEST(FlappingLayoutIncrementalRound, RecalledMatrixMatchesFullRecompute) {
  core::IncrementalConfig config;
  config.params.seed = 585253468;
  config.params.topology.tier1_count = 3;
  config.params.topology.tier2_count = 15;
  config.params.topology.tier3_count = 75;
  config.params.topology.stub_count = 500;
  config.params.measured_as_count = 60;
  config.rovista = testfx::round_config();
  config.rovista.num_threads = 2;
  const std::vector<util::Date> dates = {config.params.start + 180,
                                         config.params.start + 210,
                                         config.params.start + 240};

  core::IncrementalConfig full_config = config;
  full_config.incremental = false;
  core::IncrementalLongitudinalRunner full(full_config);
  core::IncrementalLongitudinalRunner runner(config);
  std::vector<std::vector<std::uint32_t>> tnode_lists;
  std::vector<core::RoundReport> reports;
  for (const util::Date date : dates) {
    const core::RoundReport expected = full.run_round(date);
    reports.push_back(runner.run_round(date));
    expect_bit_identical(expected.round, reports.back().round,
                         date.to_string().c_str());
    tnode_lists.emplace_back();
    for (const scan::Tnode& t : runner.tnodes()) {
      tnode_lists.back().push_back(t.address.value());
    }
  }

  // The layouts flap: A, B, A.
  ASSERT_NE(tnode_lists[0], tnode_lists[1]);
  ASSERT_EQ(tnode_lists[0], tnode_lists[2]);
  EXPECT_TRUE(reports[1].matrix_reset);
  EXPECT_FALSE(reports[2].matrix_reset);
  EXPECT_LT(reports[2].executed_pairs, reports[2].total_pairs);
}

TEST_F(IncrementalRound, RepeatedDateReusesEverything) {
  core::IncrementalLongitudinalRunner runner(
      engine_config(/*incremental=*/true, /*num_threads=*/2));
  const auto dates = round_dates(runner.config().params);
  const core::RoundReport first = runner.run_round(dates[0]);
  EXPECT_EQ(first.dirty_rows, first.total_rows);  // cold cache: all rows

  const core::RoundReport again = runner.run_round(dates[0]);
  EXPECT_TRUE(again.discovery_reused);
  EXPECT_FALSE(again.matrix_reset);
  EXPECT_EQ(again.events, 0u);
  EXPECT_EQ(again.vrp_announced + again.vrp_withdrawn, 0u);
  EXPECT_EQ(again.dirty_rows, 0u);
  EXPECT_EQ(again.executed_pairs, 0u);
  EXPECT_EQ(again.reused_pairs, again.total_pairs);
  expect_bit_identical(first.round, again.round, "repeated date");
}

}  // namespace
