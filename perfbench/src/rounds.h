// What the two round workloads share: the generated world they measure
// and the checks of a round against data-plane truth.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "bench.h"
#include "core/rovista.h"
#include "dataplane/dataplane.h"
#include "scenario/scenario.h"

namespace perfbench {

/// A generated world with the default tier proportions at one eighth of
/// the paper world's size: 3 / 15 / 75 / 500 ASes per tier (the tier-1
/// clique rounded up) and 60 measured ASes instead of 120.
rovista::scenario::ScenarioParams round_world(std::uint64_t world_seed);

/// The scoring settings the `rovista measure` and `longitudinal`
/// commands use.
rovista::core::RovistaConfig round_config(int threads);

/// Worker threads for measurement: two, or one on a one-CPU host.
int round_threads();

/// Derive the seed of world `index` of a run from the run's seed.
std::uint64_t world_seed(std::uint64_t run_seed, std::uint64_t index);

/// Check one measurement round against ground truth computed on
/// `plane` (a data plane of the same world at the same date):
///   - verdicts agree with DataPlane::compute_path(...).delivered on at
///     least 95% of conclusive outbound/no-filtering pairs,
///   - mean |score - true protection level| over scored ASes < 12,
///   - experiments = vVPs x tNodes.
/// Returns false (after recording the failed checks) if any fails.
bool check_round(Report& report, const std::string& label,
                 rovista::dataplane::DataPlane& plane,
                 const rovista::core::MeasurementRound& round,
                 std::span<const rovista::scan::Vvp> vvps,
                 std::span<const rovista::scan::Tnode> tnodes);

}  // namespace perfbench
