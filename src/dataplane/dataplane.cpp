#include "dataplane/dataplane.h"

#include <algorithm>
#include <unordered_set>

namespace rovista::dataplane {

DataPlane::DataPlane(bgp::RoutingSystem& routing, std::uint64_t seed)
    : routing_(routing), seed_(seed), rng_(seed) {}

std::unique_ptr<DataPlane> DataPlane::clone_fresh(
    bgp::RoutingSystem& routing) const {
  auto replica = std::make_unique<DataPlane>(routing, seed_);
  replica->filters_ = filters_;
  replica->loss_prob_ = loss_prob_;
  replica->hop_latency_ = hop_latency_;
  // Hosts restart from their construction-time config: Host re-derives
  // IP-ID and background state from the config seed, so replicas are
  // bit-identical regardless of what the original has simulated since.
  for (const auto& [addr, host] : hosts_) {
    replica->add_host(host_as_.at(addr), host->config());
  }
  return replica;
}

Host* DataPlane::add_host(Asn asn, HostConfig config) {
  const std::uint32_t key = config.address.value();
  if (hosts_.contains(key)) return nullptr;
  const net::Ipv4Address addr = config.address;

  auto emit = [this, asn](const net::Packet& p) { send(asn, p); };
  auto schedule = [this](TimeUs delay, std::function<void()> fn) {
    sim_.after(delay, std::move(fn));
  };
  auto now = [this] { return sim_.now(); };

  auto host = std::make_unique<Host>(std::move(config), std::move(emit),
                                     std::move(schedule), std::move(now));
  Host* raw = host.get();
  hosts_.emplace(key, std::move(host));
  host_as_.emplace(addr.value(), asn);
  deliveries_.clear();
  return raw;
}

Host* DataPlane::host(net::Ipv4Address addr) noexcept {
  const auto it = hosts_.find(addr.value());
  return it != hosts_.end() ? it->second.get() : nullptr;
}

const Host* DataPlane::host(net::Ipv4Address addr) const noexcept {
  const auto it = hosts_.find(addr.value());
  return it != hosts_.end() ? it->second.get() : nullptr;
}

Asn DataPlane::as_of(net::Ipv4Address addr) const noexcept {
  const auto it = host_as_.find(addr.value());
  return it != host_as_.end() ? it->second : 0;
}

void DataPlane::set_filter(Asn asn, FilterConfig filter) {
  filters_[asn] = filter;
  deliveries_.clear();
}

const FilterConfig& DataPlane::filter(Asn asn) const noexcept {
  const auto it = filters_.find(asn);
  return it != filters_.end() ? it->second : default_filter_;
}

bool DataPlane::address_in_as(net::Ipv4Address addr, Asn asn) const {
  const Asn host_home = as_of(addr);
  if (host_home != 0) return host_home == asn;
  const auto candidates = routing_.candidate_prefixes(addr);
  if (candidates.empty()) return false;
  const auto origins = routing_.origins_of(candidates.front());
  return std::find(origins.begin(), origins.end(), asn) != origins.end();
}

bool DataPlane::source_is_invalid_prefix(net::Ipv4Address addr) const {
  const auto candidates = routing_.candidate_prefixes(addr);
  if (candidates.empty()) return false;
  const auto origins = routing_.origins_of(candidates.front());
  if (origins.empty()) return false;
  return std::all_of(origins.begin(), origins.end(), [&](Asn origin) {
    return routing_.base_validity(candidates.front(), origin) ==
           rpki::RouteValidity::kInvalid;
  });
}

PathResult DataPlane::compute_path(Asn from_as, net::Ipv4Address dst) {
  PathResult result;
  result.hops.push_back(from_as);
  std::unordered_set<Asn> visited{from_as};

  Asn cur = from_as;
  for (int guard = 0; guard < 64; ++guard) {
    // Delivered once we are in the AS that homes the destination.
    if (address_in_as(dst, cur)) {
      if (host(dst) != nullptr && as_of(dst) == cur) {
        result.delivered = true;
        return result;
      }
      // The address block lives here but no such host exists.
      result.reason = DropReason::kNoHost;
      return result;
    }

    // Longest-prefix match over announced prefixes this AS has a route
    // for (most specific candidate wins — the Fig. 9 mechanism).
    Asn next = 0;
    const auto& cur_policy = routing_.policy(cur);
    bool blackholed = false;
    for (const net::Ipv4Prefix& prefix : routing_.candidate_prefixes(dst)) {
      const bgp::RouteEntry* entry = routing_.route_at(cur, prefix);
      if (entry == nullptr) {
        // ROV++ (v1): if this hop *filtered* the more-specific as
        // RPKI-invalid, it blackholes the space rather than chasing a
        // covering route toward the hijacker — the collateral-damage
        // countermeasure of Morillo et al.
        if (cur_policy.rov == bgp::RovMode::kRovPlusPlus) {
          const auto origins = routing_.origins_of(prefix);
          const bool filtered_invalid =
              !origins.empty() &&
              std::all_of(origins.begin(), origins.end(), [&](Asn origin) {
                return routing_.validity_for(cur, prefix, origin) ==
                       rpki::RouteValidity::kInvalid;
              });
          if (filtered_invalid) {
            blackholed = true;
            break;
          }
        }
        continue;
      }
      if (entry->next_hop == 0) {
        // We originate the covering prefix but already know the host is
        // not here; try a more general route instead (continue).
        continue;
      }
      next = entry->next_hop;
      break;
    }
    if (blackholed) {
      result.reason = DropReason::kBlackholed;
      return result;
    }
    if (next == 0) {
      const auto& policy = routing_.policy(cur);
      if (policy.default_route.has_value() &&
          (!policy.default_route_scope.has_value() ||
           policy.default_route_scope->contains(dst))) {
        next = *policy.default_route;
      }
    }
    if (next == 0) {
      result.reason = DropReason::kNoRoute;
      return result;
    }
    if (!visited.insert(next).second) {
      result.reason = DropReason::kLoop;
      return result;
    }
    result.hops.push_back(next);
    cur = next;
  }
  result.reason = DropReason::kLoop;
  return result;
}

PathResult DataPlane::evaluate(Asn from_as, const net::Packet& packet) {
  // Egress checks at the source AS.
  const FilterConfig& src_filter = filter(from_as);
  if (src_filter.sav_egress &&
      !address_in_as(packet.ip.source, from_as)) {
    PathResult r;
    r.reason = DropReason::kSavEgress;
    r.hops.push_back(from_as);
    return r;
  }
  if (src_filter.egress_drop_invalid_source &&
      source_is_invalid_prefix(packet.ip.source)) {
    PathResult r;
    r.reason = DropReason::kEgressFilter;
    r.hops.push_back(from_as);
    return r;
  }

  PathResult path = compute_path(from_as, packet.ip.destination);
  if (!path.delivered) return path;

  // Ingress check at the destination AS.
  const Asn dst_as = path.hops.back();
  const FilterConfig& dst_filter = filter(dst_as);
  if (dst_filter.ingress_drop_external && dst_as != from_as) {
    path.delivered = false;
    path.reason = DropReason::kIngressFilter;
  }
  return path;
}

void DataPlane::send(Asn from_as, const net::Packet& packet) {
  ++packets_sent_;

  if (loss_prob_ > 0.0 && rng_.bernoulli(loss_prob_)) {
    count_drop(DropReason::kRandomLoss);
    return;
  }

  const Delivery path = deliver(from_as, packet);
  if (!path.delivered) {
    count_drop(path.reason);
    return;
  }

  const TimeUs latency = hop_latency_ * static_cast<TimeUs>(path.hops) + 100;
  const net::Ipv4Address dst = packet.ip.destination;
  sim_.after(latency, [this, dst, packet] {
    Host* h = host(dst);
    if (h == nullptr) {
      count_drop(DropReason::kNoHost);
      return;
    }
    ++packets_delivered_;
    h->receive(packet);
  });
}

DataPlane::Delivery DataPlane::deliver(Asn from_as, const net::Packet& packet) {
  const auto evaluated = [&] {
    const PathResult path = evaluate(from_as, packet);
    return Delivery{path.delivered, path.reason,
                    static_cast<std::uint32_t>(path.hops.size())};
  };
  if (!routing_.frozen()) return evaluated();
  const Flow flow{from_as, packet.ip.source.value(),
                  packet.ip.destination.value()};
  const auto it = deliveries_.find(flow);
  if (it != deliveries_.end()) return it->second;
  return deliveries_.emplace(flow, evaluated()).first->second;
}

std::uint64_t DataPlane::packets_dropped(DropReason r) const noexcept {
  const auto it = drops_.find(static_cast<int>(r));
  return it != drops_.end() ? it->second : 0;
}

}  // namespace rovista::dataplane
