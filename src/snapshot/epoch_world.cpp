#include "snapshot/epoch_world.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "scenario/scenario.h"

namespace rovista::snapshot {

namespace {

// Word-at-a-time multiply-xorshift mix: one multiply per 64-bit field
// (byte-wise FNV-1a cost eight, and dominated publish on small worlds).
// Local on purpose: this digest is a lifetime invariant of one epoch,
// not a wire format, and its value is not stable across builds.
class WordHash {
 public:
  void mix(std::uint64_t v) {
    hash_ = (hash_ ^ v) * 0x9e3779b97f4a7c15ull;
    hash_ ^= hash_ >> 32;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t prefix_key(const net::Ipv4Prefix& p) noexcept {
  return (std::uint64_t{p.address().value()} << 8) | p.length();
}

void mix_vrp_set(WordHash& h, const rpki::VrpSet& set) {
  std::vector<rpki::Vrp> vrps;
  vrps.reserve(set.size());
  set.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
  std::sort(vrps.begin(), vrps.end());
  h.mix(vrps.size());
  for (const rpki::Vrp& v : vrps) {
    h.mix(prefix_key(v.prefix));
    h.mix(v.max_length);
    h.mix(v.asn);
  }
}

}  // namespace

EpochWorld::EpochWorld(const scenario::Scenario& world, std::uint64_t sequence,
                       std::shared_ptr<std::atomic<long>> live)
    : sequence_(sequence),
      date_(world.current()),
      client_as_a_(world.client_as_a()),
      client_as_b_(world.client_as_b()),
      client_addr_a_(world.client_addr_a()),
      client_addr_b_(world.client_addr_b()),
      live_(std::move(live)) {
  // Scenario's accessors are non-const for historical reasons; epoch
  // materialization only reads, so the cast is sound.
  auto& mutable_world = const_cast<scenario::Scenario&>(world);
  graph_ = std::make_unique<topology::AsGraph>(world.graph());
  routing_ = std::make_unique<bgp::RoutingSystem>(mutable_world.routing(),
                                                  *graph_);
  routing_->freeze();
  template_plane_ = mutable_world.plane().clone_fresh(*routing_);
  digest_ = recompute_digest();
  if (live_) live_->fetch_add(1, std::memory_order_relaxed);
}

EpochWorld::~EpochWorld() {
  if (live_) live_->fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t EpochWorld::recompute_digest() const {
  WordHash h;
  h.mix(static_cast<std::uint64_t>(date_.days_since_epoch()));

  // Announced prefixes, their origins, and the converged route of every
  // AS — the complete control-plane surface measurement reads. Sorted
  // iteration keeps the digest independent of hash-map order.
  std::vector<net::Ipv4Prefix> prefixes = routing_->all_prefixes();
  std::sort(prefixes.begin(), prefixes.end(),
            [](const net::Ipv4Prefix& a, const net::Ipv4Prefix& b) {
              return prefix_key(a) < prefix_key(b);
            });
  h.mix(prefixes.size());
  std::vector<std::pair<topology::Asn, const bgp::RouteEntry*>> holders;
  for (const net::Ipv4Prefix& prefix : prefixes) {
    h.mix(prefix_key(prefix));
    std::vector<topology::Asn> origins = routing_->origins_of(prefix);
    std::sort(origins.begin(), origins.end());
    for (const topology::Asn origin : origins) h.mix(origin);

    const bgp::RouteMap& routes = routing_->routes_for(prefix);
    holders.clear();
    holders.reserve(routes.size());
    for (const auto& [asn, entry] : routes) holders.emplace_back(asn, &entry);
    std::sort(holders.begin(), holders.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    h.mix(holders.size());
    for (const auto& [asn, entry] : holders) {
      const bgp::RouteEntry& e = *entry;
      h.mix(asn);
      h.mix(e.next_hop);
      h.mix(e.origin);
      h.mix(static_cast<std::uint64_t>(e.learned_from));
      h.mix(static_cast<std::uint64_t>(e.validity));
      h.mix(e.path_len);
    }
  }

  // The RPKI surface: base VRPs plus the per-AS fault-degraded views —
  // content-fingerprinted, so a fault window flipping one AS's view
  // moves the digest even with a base-VRP delta of exactly zero.
  mix_vrp_set(h, routing_->vrps());
  h.mix(routing_->effective_views_fingerprint());
  h.mix(routing_->slurm_view_count());
  return h.value();
}

EpochReader::EpochReader(EpochRef epoch) : epoch_(std::move(epoch)) {
  const EpochWorld& w = epoch_.world();
  plane_ = w.template_plane().clone_fresh(w.shared_routing());
  client_a_ = std::make_unique<scan::MeasurementClient>(
      *plane_, w.client_as_a(), w.client_addr_a());
  client_b_ = std::make_unique<scan::MeasurementClient>(
      *plane_, w.client_as_b(), w.client_addr_b());
}

}  // namespace rovista::snapshot
