#include "rounds.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace rovista;

scenario::ScenarioParams round_world(std::uint64_t world_seed) {
  scenario::ScenarioParams params;
  params.seed = world_seed;
  params.topology.tier1_count = 3;
  params.topology.tier2_count = 15;
  params.topology.tier3_count = 75;
  params.topology.stub_count = 500;
  params.measured_as_count = 60;
  return params;
}

core::RovistaConfig round_config(int threads) {
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 3;
  config.num_threads = threads;
  return config;
}

int round_threads() { return std::min(2, allowed_cpus()); }

std::uint64_t world_seed(std::uint64_t run_seed, std::uint64_t index) {
  // splitmix64 of (seed, index): distinct runs and rounds get unrelated
  // worlds, the same (seed, index) always the same world.
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL;
}

bool check_round(Report& report, const std::string& label,
                 dataplane::DataPlane& plane,
                 const core::MeasurementRound& round,
                 std::span<const scan::Vvp> vvps,
                 std::span<const scan::Tnode> tnodes) {
  Span span("bench", "bench.check_round");
  bool ok = true;
  std::size_t agree = 0;
  std::size_t disagree = 0;
  for (const auto& obs : round.observations) {
    if (obs.verdict == core::FilteringVerdict::kInconclusive ||
        obs.verdict == core::FilteringVerdict::kInboundFiltering) {
      continue;
    }
    const bool truth = plane.compute_path(obs.vvp_as, obs.tnode).delivered;
    const bool said = obs.verdict == core::FilteringVerdict::kNoFiltering;
    (truth == said ? agree : disagree)++;
  }
  const double share =
      agree + disagree == 0
          ? 0.0
          : static_cast<double>(agree) / static_cast<double>(agree + disagree);
  ok &= report.check(share >= 0.95,
                     label + ": verdict agreement with data-plane truth " +
                         std::to_string(share) + " < 0.95");

  double total_error = 0.0;
  for (const auto& score : round.scores) {
    std::size_t unreachable = 0;
    for (const auto& t : tnodes) {
      if (!plane.compute_path(score.asn, t.address).delivered) ++unreachable;
    }
    const double truth = 100.0 * static_cast<double>(unreachable) /
                         static_cast<double>(tnodes.size());
    total_error += std::abs(score.score - truth);
  }
  const double mean_error =
      round.scores.empty()
          ? 100.0
          : total_error / static_cast<double>(round.scores.size());
  ok &= report.check(mean_error < 12.0,
                     label + ": mean |score - truth| " +
                         std::to_string(mean_error) + " >= 12");
  ok &= report.check(
      round.experiments_run == vvps.size() * tnodes.size(),
      label + ": experiments " + std::to_string(round.experiments_run) +
          " != vVPs x tNodes " + std::to_string(vvps.size()) + " x " +
          std::to_string(tnodes.size()));
  return ok;
}

}  // namespace perfbench
