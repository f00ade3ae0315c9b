// Flat-engine equivalence and substrate tests (bgp/flat_propagation.h,
// DESIGN.md "Rank-flattened propagation").
//
// The contract under test: set_propagation_engine(kFlat) and
// kFixedPoint produce bit-identical RouteMaps on every world where the
// flat engine certifies (and the flat engine *must* certify on cycle-
// free worlds — the flat_certified_count() assertions keep these tests
// from passing vacuously through silent fallback). Alongside the
// equivalence axis: the pin that a default-built world converges every
// prefix on the flat engine, tie-break pins for each comparator level, rank
// invariants of the flattened graph, the refusal path on customer-
// provider cycles, arena epoch-reuse determinism, and the BatchedLpm
// vs PrefixTrie oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bgp/flat_propagation.h"
#include "bgp/routing_system.h"
#include "net/batched_lpm.h"
#include "net/prefix_trie.h"
#include "round_fixture.h"
#include "rpki/validation.h"
#include "scenario/scenario.h"
#include "topology/as_graph.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "wire_fuzz.h"

namespace rovista {
namespace {

using bgp::PropagationEngine;
using bgp::RouteEntry;
using bgp::RouteMap;
using net::Ipv4Address;
using net::Ipv4Prefix;
using topology::AsGraph;
using topology::AsInfo;
using topology::Asn;
using topology::NeighborKind;

Ipv4Prefix pfx(const char* s) {
  const auto p = Ipv4Prefix::parse(s);
  EXPECT_TRUE(p.has_value()) << s;
  return *p;
}

void expect_routes_equal(bgp::RoutingSystem& flat, bgp::RoutingSystem& exact,
                         const Ipv4Prefix& prefix) {
  const RouteMap& rf = flat.routes_for(prefix);
  const RouteMap& re = exact.routes_for(prefix);
  ASSERT_EQ(rf.size(), re.size()) << prefix.to_string();
  for (const auto& [asn, e] : re) {
    const auto it = rf.find(asn);
    ASSERT_NE(it, rf.end()) << prefix.to_string() << " @ AS" << asn;
    const RouteEntry& f = it->second;
    EXPECT_EQ(f.next_hop, e.next_hop) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.origin, e.origin) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.learned_from, e.learned_from)
        << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.validity, e.validity) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.path_len, e.path_len) << prefix.to_string() << " @ " << asn;
  }
}

// -- Scenario-world equivalence ---------------------------------------

scenario::ScenarioParams equivalence_params() {
  scenario::ScenarioParams params;
  params.seed = 11;
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

// Two scenarios from identical params diverge only in the propagation
// engine; every AS /16 plus every tNode prefix must agree at every date
// (the dates cross ROV enablements, the invalid surge and MOAS churn).
void expect_scenario_equivalence(const scenario::ScenarioParams& params,
                                 const std::vector<util::Date>& dates) {
  scenario::Scenario flat(params);
  scenario::Scenario exact(params);
  flat.routing().set_propagation_engine(PropagationEngine::kFlat);
  exact.routing().set_propagation_engine(PropagationEngine::kFixedPoint);

  for (const util::Date date : dates) {
    flat.advance_to(date);
    exact.advance_to(date);
    for (const Asn asn : flat.graph().all_asns()) {
      expect_routes_equal(flat.routing(), exact.routing(),
                          flat.as_prefix(asn));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const auto& [prefix, origin] : flat.tnode_prefixes()) {
      expect_routes_equal(flat.routing(), exact.routing(), prefix);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Anti-vacuity: the flat engine genuinely computed (scenario worlds
  // are cycle-free, so it must never fall back), and the exact system
  // never touched the flat path.
  EXPECT_GT(flat.routing().flat_certified_count(), 0u);
  EXPECT_EQ(flat.routing().flat_fallback_count(), 0u);
  EXPECT_EQ(exact.routing().flat_certified_count(), 0u);
}

TEST(FlatEquivalence, SeedScenarioAcrossTimeline) {
  const scenario::ScenarioParams params = equivalence_params();
  expect_scenario_equivalence(
      params, {params.start + 30, util::Date::from_ymd(2022, 6, 15),
               params.start + 150});
}

TEST(FlatEquivalence, SlurmWorld) {
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 12;
  params.slurm_fraction = 0.3;
  expect_scenario_equivalence(params, {params.start + 150});
}

TEST(FlatEquivalence, PreferValidAndExemptWorld) {
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 13;
  params.prefer_valid_fraction = 0.35;
  params.exempt_customers_fraction = 0.35;
  expect_scenario_equivalence(params, {params.start + 150});
}

TEST(FlatEquivalence, FaultDegradedWorld) {
  // Fault injection binds per-AS effective views; the flat engine's
  // validity groups must reproduce every degraded viewpoint exactly.
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 14;
  params.faults.rp_failure_rate = 0.3;
  params.faults.rtr_drop_rate = 0.2;
  params.faults.rp_divergence_fraction = 0.25;
  expect_scenario_equivalence(
      params, {params.start + 90, params.start + 150});
}

// -- Production engine -------------------------------------------------
//
// A world built with no engine selection must converge every announced
// prefix on the flat engine: certified once per prefix, never handed
// back to the fixed point. Stops a silent fallback (or a size threshold)
// from posing as the fast path.

void expect_default_engine_certifies_every_prefix(
    const scenario::ScenarioParams& params, util::Date date) {
  scenario::Scenario s(params);
  s.advance_to(date);
  bgp::RoutingSystem& rs = s.routing();
  EXPECT_EQ(rs.propagation_engine(), PropagationEngine::kFlat);

  rs.invalidate_all();
  const std::uint64_t certified_before = rs.flat_certified_count();
  const std::vector<Ipv4Prefix> prefixes = rs.all_prefixes();
  ASSERT_FALSE(prefixes.empty());
  for (const Ipv4Prefix& prefix : prefixes) rs.routes_for(prefix);

  EXPECT_EQ(rs.flat_fallback_count(), 0u);
  EXPECT_EQ(rs.flat_certified_count() - certified_before, prefixes.size());
}

TEST(FlatProduction, RoundFixtureWorldRunsFlat) {
  const scenario::ScenarioParams params = testfx::round_params();
  expect_default_engine_certifies_every_prefix(params,
                                               testfx::round_date(params));
}

TEST(FlatProduction, GeneratedTieredWorldRunsFlat) {
  scenario::ScenarioParams params;
  params.seed = 7;
  params.topology.tier1_count = 3;
  params.topology.tier2_count = 15;
  params.topology.tier3_count = 75;
  params.topology.stub_count = 500;
  params.measured_as_count = 60;
  expect_default_engine_certifies_every_prefix(params, params.start + 150);
}

// -- Tie-break pins ----------------------------------------------------
//
// One hand-built graph per comparator level. Each pin asserts the
// expected winner on BOTH engines, so a tie-break regression cannot
// hide behind the equivalence check agreeing on the wrong answer.

AsInfo as_info(Asn asn, int tier) {
  AsInfo info;
  info.asn = asn;
  info.name = "AS" + std::to_string(asn);
  info.tier = tier;
  return info;
}

struct EnginePair {
  bgp::RoutingSystem flat;
  bgp::RoutingSystem exact;

  explicit EnginePair(const AsGraph& graph) : flat(graph), exact(graph) {
    flat.set_propagation_engine(PropagationEngine::kFlat);
    exact.set_propagation_engine(PropagationEngine::kFixedPoint);
  }

  void announce(const Ipv4Prefix& prefix, Asn origin) {
    flat.announce({prefix, origin});
    exact.announce({prefix, origin});
  }

  // The pinned winner, checked on both engines plus full-map equality.
  void expect_best(const Ipv4Prefix& prefix, Asn at, Asn next_hop,
                   NeighborKind learned_from, std::uint16_t path_len) {
    expect_routes_equal(flat, exact, prefix);
    for (bgp::RoutingSystem* sys : {&flat, &exact}) {
      const RouteEntry* e = sys->route_at(at, prefix);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->next_hop, next_hop);
      EXPECT_EQ(e->learned_from, learned_from);
      EXPECT_EQ(e->path_len, path_len);
    }
    EXPECT_GT(flat.flat_certified_count(), 0u);
    EXPECT_EQ(flat.flat_fallback_count(), 0u);
  }
};

TEST(FlatTieBreak, LocalPreferenceCustomerBeatsPeerBeatsProvider) {
  // 60 reaches origin 9 three ways: via customer 10, via peer 20, via
  // provider 30 — all length 3. Local preference must pick the customer;
  // removing it must fall to the peer.
  AsGraph g;
  for (const Asn a : {60u, 10u, 20u, 30u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2p(60, 20);
  g.add_p2c(30, 60);
  for (const Asn mid : {10u, 20u, 30u}) g.add_p2c(mid, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  EnginePair sys(g);
  sys.announce(p, 9);
  sys.expect_best(p, 60, 10, NeighborKind::kCustomer, 3);

  AsGraph g2 = g;
  g2.remove_edge(60, 10);
  EnginePair sys2(g2);
  sys2.announce(p, 9);
  sys2.expect_best(p, 60, 20, NeighborKind::kPeer, 3);
}

TEST(FlatTieBreak, ShorterPathWinsWithinClass) {
  // Two customer routes: via 10 directly to the origin (len 3) and via
  // 20 -> 21 -> origin (len 4).
  AsGraph g;
  for (const Asn a : {60u, 10u, 20u, 21u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2c(60, 20);
  g.add_p2c(20, 21);
  g.add_p2c(10, 9);
  g.add_p2c(21, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  EnginePair sys(g);
  sys.announce(p, 9);
  sys.expect_best(p, 60, 10, NeighborKind::kCustomer, 3);
}

TEST(FlatTieBreak, LowestNextHopBreaksFullTies) {
  // Same class, same length: neighbors 3 and 5 both reach the origin
  // directly. The lower next-hop ASN wins regardless of insertion order
  // (5 is added to the graph first).
  AsGraph g;
  for (const Asn a : {60u, 5u, 3u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 5);
  g.add_p2c(60, 3);
  g.add_p2c(5, 9);
  g.add_p2c(3, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  EnginePair sys(g);
  sys.announce(p, 9);
  sys.expect_best(p, 60, 3, NeighborKind::kCustomer, 3);
}

TEST(FlatTieBreak, PreferValidOutranksPathLength) {
  // MOAS: valid origin 9 three hops out, invalid origin 8 one hop out.
  // kNone picks the short invalid route; kPreferValid ranks validity
  // above everything and takes the long valid one.
  AsGraph g;
  for (const Asn a : {60u, 10u, 11u, 9u, 8u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2c(10, 11);
  g.add_p2c(11, 9);
  g.add_p2c(60, 8);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  rpki::VrpSet vrps;
  vrps.add({p, 24, 9});

  for (const bgp::RovMode mode :
       {bgp::RovMode::kNone, bgp::RovMode::kPreferValid}) {
    EnginePair sys(g);
    for (bgp::RoutingSystem* s : {&sys.flat, &sys.exact}) {
      rpki::VrpSet copy = vrps;
      s->set_vrps(std::move(copy));
      bgp::AsPolicy policy;
      policy.rov = mode;
      s->set_policy(60, policy);
    }
    sys.announce(p, 9);
    sys.announce(p, 8);
    if (mode == bgp::RovMode::kNone) {
      sys.expect_best(p, 60, 8, NeighborKind::kCustomer, 2);
    } else {
      sys.expect_best(p, 60, 10, NeighborKind::kCustomer, 4);
    }
  }
}

// -- Flattened-graph invariants ---------------------------------------

TEST(FlatGraph, RankAndUpOrderInvariants) {
  topology::TopologyParams params;
  params.tier1_count = 4;
  params.tier2_count = 12;
  params.tier3_count = 30;
  params.stub_count = 100;
  util::Rng rng(77);
  const AsGraph g = topology::generate_topology(params, rng);
  const bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(g);

  ASSERT_FALSE(fg.customer_cycle);
  ASSERT_EQ(fg.size(), g.size());

  // Every provider ranks strictly above each of its customers.
  for (std::uint32_t i = 0; i < fg.size(); ++i) {
    for (const std::uint32_t* c = fg.customers.begin(i);
         c != fg.customers.end(i); ++c) {
      EXPECT_GT(fg.rank[i], fg.rank[*c])
          << "AS" << fg.asn_of[i] << " -> AS" << fg.asn_of[*c];
    }
  }

  // up_order is a permutation sorted by (rank, index).
  ASSERT_EQ(fg.up_order.size(), fg.size());
  std::vector<bool> seen(fg.size(), false);
  for (std::size_t k = 0; k < fg.up_order.size(); ++k) {
    const std::uint32_t i = fg.up_order[k];
    ASSERT_LT(i, fg.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
    if (k > 0) {
      const std::uint32_t prev = fg.up_order[k - 1];
      EXPECT_TRUE(fg.rank[prev] < fg.rank[i] ||
                  (fg.rank[prev] == fg.rank[i] && prev < i));
    }
  }
}

TEST(FlatGraph, CustomerCycleRefusesAndFallsBack) {
  // 1 -> 2 -> 3 -> 1 as a provider cycle: no rank order exists. The
  // flat build must flag it, and a kFlat RoutingSystem must still serve
  // correct routes by falling back to the fixed point.
  AsGraph g;
  for (const Asn a : {1u, 2u, 3u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(1, 2);
  g.add_p2c(2, 3);
  g.add_p2c(3, 1);
  g.add_p2c(3, 9);

  const bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(g);
  EXPECT_TRUE(fg.customer_cycle);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  EnginePair sys(g);
  sys.announce(p, 9);
  expect_routes_equal(sys.flat, sys.exact, p);
  EXPECT_EQ(sys.flat.flat_certified_count(), 0u);
  EXPECT_GT(sys.flat.flat_fallback_count(), 0u);
}

// -- Arena epoch reuse -------------------------------------------------

TEST(FlatRouteTable, EpochReuseIsDeterministic) {
  // A chain 1 -> 2 -> 3 with the origin alternating between ends. The
  // same PrefixInput must reproduce the same digest after the arena has
  // been recycled for a different prefix — stale state from the
  // interleaved run must be invisible.
  AsGraph g;
  for (const Asn a : {1u, 2u, 3u}) g.add_as(as_info(a, 2));
  g.add_p2c(1, 2);
  g.add_p2c(2, 3);
  const bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(g);

  bgp::flat::FlatPolicy policy;
  policy.rov_mode.assign(fg.size(), 0);
  policy.coverage.assign(fg.size(), 1.0);
  policy.validity_group.assign(fg.size(), 0);
  policy.group_rep = {0};

  auto input = [&](const char* prefix, Asn origin) {
    bgp::flat::PrefixInput in;
    in.graph = &fg;
    in.policy = &policy;
    in.prefix = pfx(prefix);
    in.origin_idx = {fg.idx_of.at(origin)};
    in.validity = {rpki::RouteValidity::kUnknown};
    return in;
  };

  bgp::flat::FlatRouteTable table;
  ASSERT_TRUE(bgp::flat::propagate(input("203.0.113.0/24", 3), table));
  const std::uint64_t first = table.digest();
  ASSERT_TRUE(bgp::flat::propagate(input("198.51.100.0/24", 1), table));
  EXPECT_NE(table.digest(), first);  // different world state
  ASSERT_TRUE(bgp::flat::propagate(input("203.0.113.0/24", 3), table));
  EXPECT_EQ(table.digest(), first);

  // All three ASes hold a route both times (chain is fully reachable).
  for (std::uint32_t i = 0; i < fg.size(); ++i) {
    EXPECT_TRUE(table.has(i, bgp::flat::FlatRouteTable::kBest));
  }
}

// -- BatchedLpm vs PrefixTrie oracle ----------------------------------

TEST(BatchedLpm, MatchesPrefixTrieOracle) {
  test::FuzzRng rng(0x10a9u);
  std::vector<Ipv4Prefix> prefixes;
  net::PrefixTrie<int> trie;
  for (int i = 0; i < 600; ++i) {
    const auto len = static_cast<std::uint8_t>(8 + rng.below(21));  // 8..28
    const Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                       len);
    prefixes.push_back(p);
    trie.insert(p, i);
  }
  const net::BatchedLpm lpm(prefixes);

  std::vector<Ipv4Address> queries;
  for (int i = 0; i < 4000; ++i) {
    // Half the queries land inside a stored prefix so the covered path
    // is exercised heavily; half are uniform.
    if (i % 2 == 0) {
      const Ipv4Prefix& base = prefixes[rng.below(prefixes.size())];
      queries.emplace_back(base.address().value() |
                           (static_cast<std::uint32_t>(rng.next()) &
                            ~base.mask()));
    } else {
      queries.emplace_back(static_cast<std::uint32_t>(rng.next()));
    }
  }

  const std::vector<std::int32_t> batch = lpm.lookup_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  std::size_t matched = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Ipv4Address addr = queries[i];
    const auto oracle = trie.longest_match(addr);
    const auto got = lpm.lookup(addr);
    ASSERT_EQ(got.has_value(), oracle.has_value()) << addr.to_string();
    if (oracle.has_value()) {
      ++matched;
      EXPECT_EQ(*got, oracle->first) << addr.to_string();
      ASSERT_GE(batch[i], 0) << addr.to_string();
      EXPECT_EQ(lpm.prefixes()[static_cast<std::size_t>(batch[i])],
                oracle->first)
          << addr.to_string();
    } else {
      EXPECT_EQ(batch[i], net::BatchedLpm::kNoMatch) << addr.to_string();
    }

    // matches() is most-specific-first; the trie's all_matches is
    // shortest-first over the same covering set.
    std::vector<Ipv4Prefix> want;
    for (const auto& entry : trie.all_matches(addr)) {
      want.push_back(entry.first);
    }
    std::reverse(want.begin(), want.end());
    EXPECT_EQ(lpm.matches(addr), want) << addr.to_string();
  }
  EXPECT_GT(matched, queries.size() / 4);
}

}  // namespace
}  // namespace rovista
