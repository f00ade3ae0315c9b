#include "bgp/routing_system.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "bgp/flat_propagation.h"

namespace rovista::bgp {

namespace {

topology::NeighborKind invert(topology::NeighborKind kind) noexcept {
  switch (kind) {
    case topology::NeighborKind::kProvider:
      return topology::NeighborKind::kCustomer;
    case topology::NeighborKind::kCustomer:
      return topology::NeighborKind::kProvider;
    case topology::NeighborKind::kPeer:
      return topology::NeighborKind::kPeer;
  }
  return topology::NeighborKind::kPeer;
}

}  // namespace

RoutingSystem::RoutingSystem(const topology::AsGraph& graph) : graph_(graph) {}

RoutingSystem::RoutingSystem(const RoutingSystem& other,
                             const topology::AsGraph& graph)
    : graph_(graph),
      policies_(other.policies_),
      policy_epochs_(other.policy_epochs_),
      default_policy_(other.default_policy_),
      base_vrps_(other.base_vrps_),
      slurm_policy_count_(other.slurm_policy_count_),
      slurm_views_(other.slurm_views_),
      effective_views_(other.effective_views_),
      effective_bindings_(other.effective_bindings_),
      announcements_(other.announcements_),
      cache_(other.cache_),
      engine_(other.engine_),
      flat_certified_(other.flat_certified_),
      flat_fallbacks_(other.flat_fallbacks_) {}

RoutingSystem::~RoutingSystem() = default;

void RoutingSystem::set_propagation_engine(PropagationEngine engine) {
  require_mutable("set_propagation_engine");
  engine_ = engine;
  flat_.reset();  // the fixed point reads none of the compiled state
}

void RoutingSystem::require_mutable(const char* op) const {
  if (frozen_) {
    throw std::logic_error(std::string("RoutingSystem::") + op +
                           " on a frozen (published-epoch) instance");
  }
}

void RoutingSystem::freeze() {
  if (frozen_) return;
  // Warm set: converged routes for every announced prefix — forwarding
  // only ever looks up candidate_prefixes(), which is a subset — and the
  // SLURM view of every configured SLURM policy, which validity_for()
  // would otherwise materialize lazily on first query.
  for (const net::Ipv4Prefix& prefix : all_prefixes()) routes_for(prefix);
  for (const auto& [asn, pol] : policies_) {
    if (pol.has_slurm()) slurm_view(asn);
  }
  frozen_ = true;
}

void RoutingSystem::set_policy(Asn asn, AsPolicy policy) {
  require_mutable("set_policy");
  const bool had_slurm = this->policy(asn).has_slurm();
  if (had_slurm) --slurm_policy_count_;
  if (policy.has_slurm()) ++slurm_policy_count_;
  policies_[asn] = std::move(policy);
  ++policy_epochs_[asn];
  slurm_views_.erase(asn);
  flat_.reset();  // compiled policy mirrors / validity groups are stale
  if (had_slurm) {
    // The replaced policy's SLURM view may have shaped any cached route
    // (including Unknown-only prefixes an assertion turned Valid), and
    // rov_sensitive() reasons from the *current* policies only.
    invalidate_all();
    return;
  }
  // ROV (and prefer-valid / SLURM) can only change route propagation for
  // prefixes whose announcements are not uniformly Valid; drop those.
  std::vector<net::Ipv4Prefix> drop;
  drop.reserve(cache_.size());
  for (const auto& [prefix, routes] : cache_) {
    if (rov_sensitive(prefix)) drop.push_back(prefix);
  }
  for (const auto& p : drop) cache_.erase(p);
}

const AsPolicy& RoutingSystem::policy(Asn asn) const noexcept {
  const auto it = policies_.find(asn);
  return it != policies_.end() ? it->second : default_policy_;
}

std::uint64_t RoutingSystem::policy_epoch(Asn asn) const noexcept {
  const auto it = policy_epochs_.find(asn);
  return it != policy_epochs_.end() ? it->second : 0;
}

void RoutingSystem::set_vrps(rpki::VrpSet vrps) {
  require_mutable("set_vrps");
  base_vrps_ = std::move(vrps);
  slurm_views_.clear();
  effective_views_.clear();
  effective_bindings_.clear();
  invalidate_all();
}

void RoutingSystem::apply_vrp_delta(rpki::VrpSet vrps,
                                    std::span<const net::Ipv4Prefix> dirty,
                                    std::span<const rpki::Vrp> announced,
                                    std::span<const rpki::Vrp> withdrawn) {
  require_mutable("apply_vrp_delta");
  std::vector<Asn> slurm_ases;
  for (const auto& [asn, pol] : policies_) {
    if (pol.has_slurm()) slurm_ases.push_back(asn);
  }
  if (slurm_ases.empty()) {
    slurm_views_.clear();  // set_policy keeps this empty; stay defensive
    base_vrps_ = std::move(vrps);
    for (const net::Ipv4Prefix& prefix : dirty) cache_.erase(prefix);
    return;
  }
  std::sort(slurm_ases.begin(), slurm_ases.end());

  // Per-view dirty derivation, phase 1: for every announced prefix the
  // delta can have changed *as seen through this AS's filters and
  // assertions*, record the view's validity per origin under the old
  // base (materializing the view from it if no query has yet).
  struct ViewProbe {
    Asn asn;
    net::Ipv4Prefix prefix;
    Asn origin;
    rpki::RouteValidity before;
  };
  std::vector<ViewProbe> probes;
  for (const Asn asn : slurm_ases) {
    // An AS bound to an effective view reads the base only through that
    // frozen/diverged view, which this base delta does not touch.
    if (bound_to_view(asn)) continue;
    const rpki::SlurmFile& slurm = policy(asn).slurm;
    const std::vector<net::Ipv4Prefix> changed =
        slurm.view_changed_prefixes(announced, withdrawn);
    if (changed.empty()) continue;  // fully filtered delta: view is inert
    net::PrefixTrie<bool> touch;
    for (const net::Ipv4Prefix& p : changed) touch.insert(p, true);
    const rpki::VrpSet& view = slurm_view(asn);
    announcements_.for_each(
        [&](const net::Ipv4Prefix& prefix, const std::vector<Asn>& origins) {
          if (touch.covering(prefix).empty()) return;
          for (const Asn origin : origins) {
            probes.push_back(
                {asn, prefix, origin, view.validate(prefix, origin)});
          }
        });
  }

  // Phase 2: patch every materialized view in place (a view an AS has
  // not queried yet stays lazy and will be built from the new base),
  // then install the new base.
  for (const Asn asn : slurm_ases) {
    if (bound_to_view(asn)) continue;  // view derives from its effective base
    const auto it = slurm_views_.find(asn);
    if (it == slurm_views_.end()) continue;
    policy(asn).slurm.apply_delta(it->second, announced, withdrawn);
  }
  base_vrps_ = std::move(vrps);

  // Phase 3: erase the base dirty set plus every probed (prefix, origin)
  // whose per-view validity actually flipped.
  for (const net::Ipv4Prefix& prefix : dirty) cache_.erase(prefix);
  for (const ViewProbe& probe : probes) {
    const rpki::VrpSet& view = slurm_view(probe.asn);
    if (view.validate(probe.prefix, probe.origin) != probe.before) {
      cache_.erase(probe.prefix);
    }
  }
}

rpki::RouteValidity RoutingSystem::base_validity(const net::Ipv4Prefix& prefix,
                                                 Asn origin) const {
  return base_vrps_.validate(prefix, origin);
}

rpki::RouteValidity RoutingSystem::validity_for(Asn asn,
                                                const net::Ipv4Prefix& prefix,
                                                Asn origin) const {
  if (!policy(asn).has_slurm()) {
    return effective_base(asn).validate(prefix, origin);
  }
  return slurm_view(asn).validate(prefix, origin);
}

rpki::VrpSet& RoutingSystem::slurm_view(Asn asn) const {
  auto it = slurm_views_.find(asn);
  if (it == slurm_views_.end()) {
    if (frozen_) {
      // Materializing would mutate shared state under concurrent
      // readers; freeze() pre-builds every configured SLURM view, so a
      // miss here is an incomplete-warm bug, not a recoverable state.
      throw std::logic_error(
          "RoutingSystem::slurm_view miss on a frozen instance");
    }
    it = slurm_views_.emplace(asn, policy(asn).slurm.apply(effective_base(asn)))
             .first;
  }
  return it->second;
}

const rpki::VrpSet& RoutingSystem::effective_base(Asn asn) const {
  const auto it = effective_bindings_.find(asn);
  if (it != effective_bindings_.end() && it->second != 0 &&
      it->second <= effective_views_.size()) {
    return effective_views_[it->second - 1];
  }
  return base_vrps_;
}

bool RoutingSystem::bound_to_view(Asn asn) const {
  const auto it = effective_bindings_.find(asn);
  return it != effective_bindings_.end() && it->second != 0;
}

std::uint64_t RoutingSystem::effective_views_fingerprint() const {
  if (effective_views_.empty() && effective_bindings_.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(effective_views_.size());
  for (const rpki::VrpSet& view : effective_views_) {
    std::vector<rpki::Vrp> vrps;
    vrps.reserve(view.size());
    view.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
    std::sort(vrps.begin(), vrps.end());
    mix(vrps.size());
    for (const rpki::Vrp& v : vrps) {
      mix((std::uint64_t{v.prefix.address().value()} << 8) |
          v.prefix.length());
      mix(v.max_length);
      mix(v.asn);
    }
  }
  std::vector<std::pair<Asn, std::uint32_t>> bindings(
      effective_bindings_.begin(), effective_bindings_.end());
  std::sort(bindings.begin(), bindings.end());
  mix(bindings.size());
  for (const auto& [asn, id] : bindings) {
    mix(asn);
    mix(id);
  }
  return h;
}

void RoutingSystem::set_effective_views(
    std::vector<rpki::VrpSet> views,
    std::vector<std::pair<Asn, std::uint32_t>> bindings) {
  if (views.empty() && bindings.empty() && effective_views_.empty() &&
      effective_bindings_.empty()) {
    return;  // fault-free worlds never touch the machinery below
  }
  require_mutable("set_effective_views");

  // Every AS bound before or after is affected: even an unchanged view
  // id points at content rebuilt for the new date.
  std::vector<Asn> affected;
  affected.reserve(effective_bindings_.size() + bindings.size());
  for (const auto& [asn, id] : effective_bindings_) affected.push_back(asn);
  for (const auto& [asn, id] : bindings) affected.push_back(asn);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  std::unordered_map<Asn, std::uint32_t> new_bindings(bindings.begin(),
                                                      bindings.end());
  const auto resolve = [this](const std::unordered_map<Asn, std::uint32_t>& b,
                              const std::vector<rpki::VrpSet>& v,
                              Asn asn) -> const rpki::VrpSet& {
    const auto it = b.find(asn);
    if (it != b.end() && it->second != 0 && it->second <= v.size()) {
      return v[it->second - 1];
    }
    return base_vrps_;
  };

  // Probe cached announced prefixes: erase exactly those where some
  // affected AS's effective validity flips old → new. Materialized
  // SLURM views sit on top of the effective base, so slurm-bearing ASes
  // are probed through applied views on both legs.
  struct AsViews {
    Asn asn;
    const rpki::VrpSet* before;
    const rpki::VrpSet* after;
  };
  std::deque<rpki::VrpSet> scratch;  // owns materialized SLURM probes
  std::vector<AsViews> probes;
  if (!cache_.empty()) {
    probes.reserve(affected.size());
    for (const Asn asn : affected) {
      const rpki::VrpSet& before_base =
          resolve(effective_bindings_, effective_views_, asn);
      const rpki::VrpSet& after_base = resolve(new_bindings, views, asn);
      if (&before_base == &after_base) continue;  // base → base: inert here
      if (!policy(asn).has_slurm()) {
        probes.push_back({asn, &before_base, &after_base});
        continue;
      }
      const auto it = slurm_views_.find(asn);
      const rpki::VrpSet* before =
          it != slurm_views_.end()
              ? &it->second
              : &scratch.emplace_back(policy(asn).slurm.apply(before_base));
      const rpki::VrpSet* after =
          &scratch.emplace_back(policy(asn).slurm.apply(after_base));
      probes.push_back({asn, before, after});
    }
    std::vector<net::Ipv4Prefix> drop;
    announcements_.for_each(
        [&](const net::Ipv4Prefix& prefix, const std::vector<Asn>& origins) {
          if (cache_.find(prefix) == cache_.end()) return;
          for (const AsViews& p : probes) {
            for (const Asn origin : origins) {
              if (p.before->validate(prefix, origin) !=
                  p.after->validate(prefix, origin)) {
                drop.push_back(prefix);
                return;
              }
            }
          }
        });
    for (const net::Ipv4Prefix& p : drop) cache_.erase(p);
  }

  // Materialized SLURM views of affected ASes were built over the old
  // effective base; rebuild lazily from the new one.
  for (const Asn asn : affected) slurm_views_.erase(asn);

  effective_views_ = std::move(views);
  effective_bindings_ = std::move(new_bindings);
  flat_.reset();  // view bindings shape the flat validity groups
}

void RoutingSystem::announce(const OriginAnnouncement& a) {
  require_mutable("announce");
  std::vector<Asn>* origins = announcements_.find(a.prefix);
  if (origins == nullptr) {
    announcements_.insert(a.prefix, {a.origin});
  } else if (std::find(origins->begin(), origins->end(), a.origin) ==
             origins->end()) {
    origins->push_back(a.origin);
  }
  invalidate_prefix(a.prefix);
}

bool RoutingSystem::withdraw(const OriginAnnouncement& a) {
  require_mutable("withdraw");
  std::vector<Asn>* origins = announcements_.find(a.prefix);
  if (origins == nullptr) return false;
  const auto it = std::find(origins->begin(), origins->end(), a.origin);
  if (it == origins->end()) return false;
  origins->erase(it);
  if (origins->empty()) announcements_.erase(a.prefix);
  invalidate_prefix(a.prefix);
  return true;
}

std::vector<Asn> RoutingSystem::origins_of(
    const net::Ipv4Prefix& prefix) const {
  const std::vector<Asn>* origins = announcements_.find(prefix);
  return origins != nullptr ? *origins : std::vector<Asn>{};
}

std::vector<net::Ipv4Prefix> RoutingSystem::candidate_prefixes(
    net::Ipv4Address addr) const {
  auto matches = announcements_.all_matches(addr);
  std::vector<net::Ipv4Prefix> out;
  out.reserve(matches.size());
  for (const auto& [prefix, origins] : matches) out.push_back(prefix);
  std::reverse(out.begin(), out.end());  // most specific first
  return out;
}

std::vector<net::Ipv4Prefix> RoutingSystem::all_prefixes() const {
  std::vector<net::Ipv4Prefix> out;
  out.reserve(announcements_.size());
  announcements_.for_each(
      [&](const net::Ipv4Prefix& p, const std::vector<Asn>&) {
        out.push_back(p);
      });
  return out;
}

bool RoutingSystem::rov_sensitive(const net::Ipv4Prefix& prefix) const {
  // A SLURM exception can flip any (prefix, origin) validity, Unknown
  // included; decided from the configured policies, not from which views
  // happen to be materialized, so the answer is query-order-independent.
  if (slurm_policy_count_ > 0) return true;
  // Scan the base and every installed effective view: a validity that is
  // Invalid anywhere, or that differs across origins *or views*, makes
  // the prefix policy-sensitive. Installed views only, not per-query
  // state, so the answer stays query-order-independent.
  const std::vector<Asn> origins = origins_of(prefix);
  std::optional<rpki::RouteValidity> first;
  const auto sensitive_in = [&](const rpki::VrpSet& set) {
    for (const Asn origin : origins) {
      const rpki::RouteValidity v = set.validate(prefix, origin);
      if (v == rpki::RouteValidity::kInvalid) return true;
      if (!first.has_value()) {
        first = v;
      } else if (v != *first) {
        return true;  // mixed validity: prefer-valid-sensitive
      }
    }
    return false;
  };
  if (sensitive_in(base_vrps_)) return true;
  for (const rpki::VrpSet& view : effective_views_) {
    if (sensitive_in(view)) return true;
  }
  return false;
}

const RouteMap& RoutingSystem::routes_for(const net::Ipv4Prefix& prefix) {
  const auto it = cache_.find(prefix);
  if (it != cache_.end()) return it->second;
  if (frozen_) {
    // freeze() warmed every announced prefix; computing here would
    // insert into cache_ under concurrent readers. See freeze().
    throw std::logic_error(
        "RoutingSystem::routes_for miss on a frozen instance");
  }
  return cache_.emplace(prefix, compute_routes(prefix)).first->second;
}

const RouteEntry* RoutingSystem::route_at(Asn asn,
                                          const net::Ipv4Prefix& prefix) {
  const RouteMap& routes = routes_for(prefix);
  const auto it = routes.find(asn);
  return it != routes.end() ? &it->second : nullptr;
}

std::vector<Asn> RoutingSystem::as_path(Asn asn,
                                        const net::Ipv4Prefix& prefix) {
  std::vector<Asn> path;
  const RouteMap& routes = routes_for(prefix);
  Asn cur = asn;
  for (std::size_t guard = 0; guard < 64; ++guard) {
    const auto it = routes.find(cur);
    if (it == routes.end()) return {};
    path.push_back(cur);
    if (it->second.next_hop == 0) return path;  // reached the origin
    cur = it->second.next_hop;
  }
  return {};  // should be unreachable: next hops form a tree to the origin
}

void RoutingSystem::invalidate_prefix(const net::Ipv4Prefix& prefix) {
  require_mutable("invalidate_prefix");
  cache_.erase(prefix);
}

void RoutingSystem::invalidate_all() {
  require_mutable("invalidate_all");
  cache_.clear();
  // invalidate_all is the documented fence after direct AsGraph edits
  // (scenario relationship events), so the compiled CSR goes with it.
  flat_.reset();
}

RouteMap RoutingSystem::compute_routes(const net::Ipv4Prefix& prefix) const {
  if (engine_ == PropagationEngine::kFlat) {
    std::optional<RouteMap> flat_routes = compute_routes_flat(prefix);
    if (flat_routes.has_value()) return *std::move(flat_routes);
    // Declined (customer cycle / sweep cap): fall through to the exact
    // Adj-RIB-In engine below.
  }
  // Full Adj-RIB-In fixed point. State is per-AS: the routes each
  // neighbor currently offers, plus the selected best.
  struct AsState {
    std::unordered_map<Asn, Route> adj_in;  // neighbor → offered route
    std::optional<Route> best;
    bool originates = false;
  };
  std::unordered_map<Asn, AsState> state;

  const std::vector<Asn> origins = origins_of(prefix);
  if (origins.empty()) return {};

  std::deque<Asn> queue;
  for (Asn origin : origins) {
    if (!graph_.contains(origin)) continue;
    AsState& s = state[origin];
    s.originates = true;
    Route self;
    self.prefix = prefix;
    self.as_path = {origin};
    self.learned_from = topology::NeighborKind::kCustomer;
    self.validity = validity_for(origin, prefix, origin);
    s.best = std::move(self);
    queue.push_back(origin);
  }

  // Select best at `asn` from self-origination and adj-in.
  const auto select_best = [&](Asn asn, AsState& s) -> std::optional<Route> {
    std::optional<Route> best;
    if (s.originates) {
      Route self;
      self.prefix = prefix;
      self.as_path = {asn};
      self.learned_from = topology::NeighborKind::kCustomer;
      self.validity = validity_for(asn, prefix, asn);
      return self;  // self-originated always wins
    }
    const AsPolicy& pol = policy(asn);
    for (const auto& [neighbor, route] : s.adj_in) {
      if (!best || prefer_route(pol, route, *best)) best = route;
    }
    return best;
  };

  std::size_t iterations = 0;
  const std::size_t max_iterations = graph_.size() * 64 + 1024;
  while (!queue.empty() && ++iterations < max_iterations) {
    const Asn asn = queue.front();
    queue.pop_front();
    const AsState& s = state[asn];

    for (const topology::Neighbor& nb : graph_.neighbors(asn)) {
      AsState& ns = state[nb.asn];
      const topology::NeighborKind from_neighbor_view = invert(nb.kind);

      // What does `asn` offer this neighbor now?
      std::optional<Route> offered;
      if (s.best.has_value() &&
          exports_to(s.best->learned_from, nb.kind)) {
        // Loop prevention: neighbor already on the path.
        const auto& path = s.best->as_path;
        if (std::find(path.begin(), path.end(), nb.asn) == path.end()) {
          Route r;
          r.prefix = prefix;
          r.as_path.reserve(path.size() + 1);
          r.as_path.push_back(nb.asn);
          r.as_path.insert(r.as_path.end(), path.begin(), path.end());
          r.learned_from = from_neighbor_view;
          r.validity = validity_for(nb.asn, prefix, r.origin());
          if (rov_accepts(policy(nb.asn), nb.asn, asn, prefix,
                          from_neighbor_view, r.validity)) {
            offered = std::move(r);
          }
        }
      }

      // Update the neighbor's adj-in and reselect.
      bool changed = false;
      const auto existing = ns.adj_in.find(asn);
      if (offered.has_value()) {
        if (existing == ns.adj_in.end() ||
            existing->second.as_path != offered->as_path ||
            existing->second.validity != offered->validity) {
          ns.adj_in[asn] = *offered;
          changed = true;
        }
      } else if (existing != ns.adj_in.end()) {
        ns.adj_in.erase(existing);
        changed = true;
      }
      if (!changed) continue;

      std::optional<Route> new_best = select_best(nb.asn, ns);
      const bool best_changed =
          new_best.has_value() != ns.best.has_value() ||
          (new_best.has_value() &&
           (new_best->as_path != ns.best->as_path ||
            new_best->learned_from != ns.best->learned_from));
      if (best_changed) {
        ns.best = std::move(new_best);
        queue.push_back(nb.asn);
      }
    }
  }

  RouteMap out;
  out.reserve(state.size());
  for (const auto& [asn, s] : state) {
    if (!s.best.has_value()) continue;
    RouteEntry e;
    e.next_hop = s.best->next_hop();
    e.origin = s.best->origin();
    e.learned_from = s.best->learned_from;
    e.validity = s.best->validity;
    e.path_len = static_cast<std::uint16_t>(s.best->as_path.size());
    out.emplace(asn, e);
  }
  return out;
}

flat::FlatState& RoutingSystem::flat_state() const {
  if (flat_ != nullptr) return *flat_;
  auto state = std::make_unique<flat::FlatState>();
  state->graph = flat::FlatGraph::build(graph_);
  const std::uint32_t n = state->graph.size();

  flat::FlatPolicy& fp = state->policy;
  fp.rov_mode.resize(n);
  fp.coverage.resize(n);
  fp.validity_group.assign(n, 0);
  fp.group_rep.assign(1, 0);  // group 0: the shared base view
  // ASes bound to the same effective view share a validity group;
  // every SLURM-bearing AS sees a view nobody else does.
  std::unordered_map<std::uint32_t, std::uint32_t> view_group;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Asn asn = state->graph.asn_of[i];
    const AsPolicy& pol = policy(asn);
    fp.rov_mode[i] = static_cast<std::uint8_t>(pol.rov);
    fp.coverage[i] = pol.session_coverage;
    if (pol.has_slurm()) {
      fp.validity_group[i] = static_cast<std::uint32_t>(fp.group_rep.size());
      fp.group_rep.push_back(asn);
      continue;
    }
    const auto it = effective_bindings_.find(asn);
    if (it == effective_bindings_.end() || it->second == 0 ||
        it->second > effective_views_.size()) {
      continue;  // group 0
    }
    const auto [vg, inserted] = view_group.emplace(
        it->second, static_cast<std::uint32_t>(fp.group_rep.size()));
    if (inserted) fp.group_rep.push_back(asn);
    fp.validity_group[i] = vg->second;
  }
  flat_ = std::move(state);
  return *flat_;
}

std::optional<RouteMap> RoutingSystem::compute_routes_flat(
    const net::Ipv4Prefix& prefix) const {
  flat::FlatState& state = flat_state();
  if (state.graph.customer_cycle) {
    ++flat_fallbacks_;
    return std::nullopt;
  }

  flat::PrefixInput in;
  in.graph = &state.graph;
  in.policy = &state.policy;
  in.prefix = prefix;
  std::vector<Asn> origin_asns;
  for (const Asn origin : origins_of(prefix)) {
    const auto it = state.graph.idx_of.find(origin);
    if (it == state.graph.idx_of.end()) continue;
    in.origin_idx.push_back(it->second);
    origin_asns.push_back(origin);
  }
  const std::size_t norigins = origin_asns.size();
  in.validity.resize(state.policy.group_rep.size() * norigins);
  for (std::size_t g = 0; g < state.policy.group_rep.size(); ++g) {
    for (std::size_t oi = 0; oi < norigins; ++oi) {
      in.validity[g * norigins + oi] =
          g == 0 ? base_validity(prefix, origin_asns[oi])
                 : validity_for(state.policy.group_rep[g], prefix,
                                origin_asns[oi]);
    }
  }

  if (!flat::propagate(in, state.table)) {
    ++flat_fallbacks_;
    return std::nullopt;
  }
  ++flat_certified_;

  const flat::FlatRouteTable& t = state.table;
  RouteMap out;
  out.reserve(state.graph.size());
  for (std::uint32_t i = 0; i < state.graph.size(); ++i) {
    if (!t.has(i, flat::FlatRouteTable::kBest)) continue;
    RouteEntry e;
    const std::uint32_t nh = t.next_hop[flat::FlatRouteTable::kBest][i];
    e.next_hop = nh == flat::kNoIdx ? 0 : state.graph.asn_of[nh];
    e.origin = origin_asns[t.origin_oi[flat::FlatRouteTable::kBest][i]];
    switch (t.best_cls[i]) {
      case flat::FlatRouteTable::kPeer:
        e.learned_from = topology::NeighborKind::kPeer;
        break;
      case flat::FlatRouteTable::kProv:
        e.learned_from = topology::NeighborKind::kProvider;
        break;
      default:
        e.learned_from = topology::NeighborKind::kCustomer;
        break;
    }
    e.validity = static_cast<rpki::RouteValidity>(
        t.validity[flat::FlatRouteTable::kBest][i]);
    e.path_len = static_cast<std::uint16_t>(
        t.path_len[flat::FlatRouteTable::kBest][i]);
    out.emplace(state.graph.asn_of[i], e);
  }
  return out;
}

}  // namespace rovista::bgp
