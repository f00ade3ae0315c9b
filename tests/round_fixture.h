// Shared "standard fixture" for the measurement-round determinism and
// golden regression tests (and mirrored by bench_parallel_round): a
// small deterministic world plus one acquisition pass.
//
// Discovery (tNode/vVP acquisition) mutates host state — probes advance
// IP-ID counters and background RNG streams — so it runs on a throwaway
// world; measurement worlds are then built fresh from the same params,
// which is exactly what scenario::make_replica_factory produces.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/routing_system.h"
#include "core/rovista.h"
#include "scenario/scenario.h"

namespace rovista::testfx {

inline scenario::ScenarioParams round_params(std::uint64_t seed = 11) {
  scenario::ScenarioParams params;
  params.seed = seed;
  params.topology.tier1_count = 4;
  params.topology.tier2_count = 14;
  params.topology.tier3_count = 36;
  params.topology.stub_count = 120;
  params.tnode_prefix_count = 4;
  params.measured_as_count = 12;
  params.hosts_per_measured_as = 3;
  params.collector_peer_count = 30;
  return params;
}

inline util::Date round_date(const scenario::ScenarioParams& params) {
  return params.start + 150;
}

inline core::RovistaConfig round_config() {
  core::RovistaConfig config;
  config.scoring.min_vvps_per_as = 2;
  config.scoring.min_tnodes = 2;
  return config;
}

struct RoundInputs {
  std::vector<scan::Vvp> vvps;
  std::vector<scan::Tnode> tnodes;
  // Prefixes the discovery world converged on the flat engine (see
  // bgp::RoutingSystem::flat_certified_count).
  std::uint64_t flat_certified = 0;
};

inline RoundInputs acquire_round_inputs(
    const scenario::ScenarioParams& params, util::Date date,
    const core::RovistaConfig& config,
    bgp::PropagationEngine engine = bgp::PropagationEngine::kFlat) {
  scenario::Scenario s(params);
  s.routing().set_propagation_engine(engine);
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
  inputs.flat_certified = s.routing().flat_certified_count();
  return inputs;
}

}  // namespace rovista::testfx
