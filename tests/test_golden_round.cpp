// Golden regression test: the standard fixture's per-AS scores are
// snapshotted in tests/data/golden_round_scores.csv. Any change to the
// measurement pipeline that shifts a verdict or score — however subtle —
// fails this diff, so performance work cannot silently change results.
//
// Regenerate intentionally with:
//   ROVISTA_REGEN_GOLDEN=1 ./test_golden_round
// and commit the diff together with an explanation of why verdicts moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <atomic>
#include <memory>

#include "core/parallel_round.h"
#include "round_fixture.h"
#include "snapshot/world_source.h"

#ifndef ROVISTA_TEST_DATA_DIR
#error "ROVISTA_TEST_DATA_DIR must be defined by the build"
#endif

namespace {

using namespace rovista;

std::string render_scores(const std::vector<core::AsScore>& scores) {
  std::string out =
      "asn,score,vvp_count,tnodes_consistent,tnodes_outbound,"
      "tnodes_inconsistent\n";
  char line[160];
  for (const core::AsScore& s : scores) {
    // %.17g round-trips doubles exactly: the diff is bit-level.
    std::snprintf(line, sizeof(line), "%u,%.17g,%d,%d,%d,%d\n", s.asn,
                  s.score, s.vvp_count, s.tnodes_consistent,
                  s.tnodes_outbound, s.tnodes_inconsistent);
    out += line;
  }
  return out;
}

std::string golden_path() {
  return std::string(ROVISTA_TEST_DATA_DIR) + "/golden_round_scores.csv";
}

std::string read_golden() {
  const std::string path = golden_path();
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path
                  << " — run with ROVISTA_REGEN_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  return want.str();
}

// Wraps a production replica and, when the replica dies, adds how many
// prefixes its routing certified on the flat engine (for an epoch
// reader: the shared epoch's routing, whose clone carries the
// publisher's counts) — proof the default path really ran flat.
class CountingReplica final : public core::MeasurementReplica {
 public:
  CountingReplica(std::unique_ptr<core::MeasurementReplica> inner,
                  std::shared_ptr<std::atomic<std::uint64_t>> certified)
      : inner_(std::move(inner)), certified_(std::move(certified)) {}

  ~CountingReplica() override {
    *certified_ += inner_->plane().routing().flat_certified_count();
  }

  dataplane::DataPlane& plane() override { return inner_->plane(); }
  scan::MeasurementClient& client() override { return inner_->client(); }

 private:
  std::unique_ptr<core::MeasurementReplica> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> certified_;
};

core::ReplicaFactory counting(
    core::ReplicaFactory inner,
    std::shared_ptr<std::atomic<std::uint64_t>> certified) {
  return [inner = std::move(inner), certified = std::move(certified)] {
    return std::unique_ptr<core::MeasurementReplica>(
        std::make_unique<CountingReplica>(inner(), certified));
  };
}

TEST(GoldenRound, ScoresMatchCheckedInGolden) {
  const scenario::ScenarioParams params = testfx::round_params();
  const util::Date date = testfx::round_date(params);
  const core::RovistaConfig config = testfx::round_config();
  const testfx::RoundInputs inputs =
      testfx::acquire_round_inputs(params, date, config);
  ASSERT_FALSE(inputs.vvps.empty());
  ASSERT_FALSE(inputs.tnodes.empty());
  EXPECT_GT(inputs.flat_certified, 0u);

  const auto certified = std::make_shared<std::atomic<std::uint64_t>>(0);
  core::ParallelRoundConfig round_config;
  round_config.experiment = config.experiment;
  round_config.scoring = config.scoring;
  round_config.num_threads = 0;  // serial reference engine
  const core::ParallelRoundRunner runner(
      counting(scenario::make_replica_factory(params, date), certified),
      round_config);
  const core::MeasurementRound round =
      runner.run(inputs.vvps, inputs.tnodes);
  ASSERT_FALSE(round.scores.empty());
  EXPECT_GT(certified->load(), 0u);
  const std::string got = render_scores(round.scores);

  if (std::getenv("ROVISTA_REGEN_GOLDEN") != nullptr) {
    const std::string path = golden_path();
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  EXPECT_EQ(read_golden(), got)
      << "measurement verdicts changed; if intentional, regenerate with "
         "ROVISTA_REGEN_GOLDEN=1 and explain the change in the commit";
}

// Equivalence axis: the epoch-snapshot engine must reproduce the very
// same golden CSV bytes the replica engine does — one assertion per
// engine against one checked-in file, so neither can drift alone.
TEST(GoldenRound, SnapshotEngineMatchesSameGolden) {
  const scenario::ScenarioParams params = testfx::round_params();
  const util::Date date = testfx::round_date(params);
  const core::RovistaConfig config = testfx::round_config();
  const testfx::RoundInputs inputs =
      testfx::acquire_round_inputs(params, date, config);

  core::ParallelRoundConfig round_config;
  round_config.experiment = config.experiment;
  round_config.scoring = config.scoring;
  round_config.num_threads = 4;
  const auto certified = std::make_shared<std::atomic<std::uint64_t>>(0);
  const core::ParallelRoundRunner runner(
      counting(snapshot::make_measurement_factory(
                   params, date, snapshot::EngineMode::kSnapshot),
               certified),
      round_config);
  const core::MeasurementRound round =
      runner.run(inputs.vvps, inputs.tnodes);
  ASSERT_FALSE(round.scores.empty());
  EXPECT_GT(certified->load(), 0u);
  EXPECT_EQ(read_golden(), render_scores(round.scores))
      << "snapshot engine diverged from the golden scores the replica "
         "engine produces";
}

// A ScenarioReplica-alike that forces the Adj-RIB-In fixed point
// before any route is demanded, and reports how many prefixes the flat
// path certified when it dies (must be none: the reference may not
// touch the engine it checks).
class FixedPointReplica final : public core::MeasurementReplica {
 public:
  FixedPointReplica(const scenario::ScenarioParams& params, util::Date date,
                    std::shared_ptr<std::atomic<std::uint64_t>> certified)
      : scenario_(params), certified_(std::move(certified)) {
    scenario_.routing().set_propagation_engine(
        bgp::PropagationEngine::kFixedPoint);
    scenario_.advance_to(date);
    // Both clients, A then B, as ScenarioReplica builds them.
    client_a_ = std::make_unique<scan::MeasurementClient>(
        scenario_.plane(), scenario_.client_as_a(), scenario_.client_addr_a());
    client_b_ = std::make_unique<scan::MeasurementClient>(
        scenario_.plane(), scenario_.client_as_b(), scenario_.client_addr_b());
  }

  ~FixedPointReplica() override {
    *certified_ += scenario_.routing().flat_certified_count();
  }

  dataplane::DataPlane& plane() override { return scenario_.plane(); }
  scan::MeasurementClient& client() override { return *client_a_; }

 private:
  scenario::Scenario scenario_;
  std::shared_ptr<std::atomic<std::uint64_t>> certified_;
  std::unique_ptr<scan::MeasurementClient> client_a_;
  std::unique_ptr<scan::MeasurementClient> client_b_;
};

// Reference axis: forcing the fixed point end to end — through
// discovery AND measurement — must reproduce the same golden CSV bytes
// the production (flat) engine does. This pins the engines'
// equivalence at the score level, not just the RouteMap level.
TEST(GoldenRound, FixedPointReferenceMatchesSameGolden) {
  const scenario::ScenarioParams params = testfx::round_params();
  const util::Date date = testfx::round_date(params);
  const core::RovistaConfig config = testfx::round_config();
  const testfx::RoundInputs inputs = testfx::acquire_round_inputs(
      params, date, config, bgp::PropagationEngine::kFixedPoint);
  ASSERT_FALSE(inputs.vvps.empty());
  ASSERT_FALSE(inputs.tnodes.empty());
  EXPECT_EQ(inputs.flat_certified, 0u);

  const auto certified = std::make_shared<std::atomic<std::uint64_t>>(0);
  core::ParallelRoundConfig round_config;
  round_config.experiment = config.experiment;
  round_config.scoring = config.scoring;
  round_config.num_threads = 0;
  const core::ParallelRoundRunner runner(
      [params, date, certified] {
        return std::unique_ptr<core::MeasurementReplica>(
            std::make_unique<FixedPointReplica>(params, date, certified));
      },
      round_config);
  const core::MeasurementRound round =
      runner.run(inputs.vvps, inputs.tnodes);
  ASSERT_FALSE(round.scores.empty());
  EXPECT_EQ(read_golden(), render_scores(round.scores))
      << "fixed-point reference engine diverged from the golden scores "
         "the flat engine produces";
  EXPECT_EQ(certified->load(), 0u);
}

}  // namespace
