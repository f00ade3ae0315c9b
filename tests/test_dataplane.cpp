// Tests for src/dataplane: event simulator, IP-ID generators, traffic
// models, host TCP behaviour, forwarding, filters, traceroute.
#include <gtest/gtest.h>

#include <vector>

#include "dataplane/dataplane.h"
#include "dataplane/event_sim.h"
#include "dataplane/host.h"
#include "dataplane/ipid.h"
#include "dataplane/traceroute.h"
#include "dataplane/traffic.h"

namespace {

using namespace rovista::dataplane;
using rovista::bgp::AsPolicy;
using rovista::bgp::RoutingSystem;
using rovista::bgp::RovMode;
using rovista::net::Ipv4Address;
using rovista::net::Ipv4Prefix;
using rovista::net::Packet;
using rovista::net::TcpFlags;
using rovista::rpki::Vrp;
using rovista::rpki::VrpSet;
using rovista::topology::AsGraph;
using rovista::topology::Asn;

Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }
Ipv4Address addr(const char* s) { return *Ipv4Address::parse(s); }

// ---------- Simulator ----------

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(200, [&] { ++fired; });
  sim.at(300, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(200), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int value = 0;
  sim.at(10, [&] {
    sim.after(5, [&] { value = 42; });
  });
  sim.run();
  EXPECT_EQ(value, 42);
  EXPECT_EQ(sim.now(), 15u);
}

TEST(Simulator, MicrosecondsConversion) {
  EXPECT_EQ(microseconds(0.5), 500000u);
  EXPECT_DOUBLE_EQ(to_seconds(1500000), 1.5);
}

// ---------- IP-ID generators ----------

TEST(IpId, GlobalCounterIncrementsForAllDestinations) {
  IpIdGenerator gen(IpIdPolicy::kGlobal, 100, 1);
  EXPECT_EQ(gen.next(addr("1.1.1.1")), 100);
  EXPECT_EQ(gen.next(addr("2.2.2.2")), 101);
  EXPECT_EQ(gen.next(addr("1.1.1.1")), 102);
  gen.advance(10);
  EXPECT_EQ(gen.next(addr("3.3.3.3")), 113);
}

TEST(IpId, GlobalCounterWrapsAround) {
  IpIdGenerator gen(IpIdPolicy::kGlobal, 65535, 1);
  EXPECT_EQ(gen.next(addr("1.1.1.1")), 65535);
  EXPECT_EQ(gen.next(addr("1.1.1.1")), 0);
}

TEST(IpId, PerDestinationCountersAreIndependent) {
  IpIdGenerator gen(IpIdPolicy::kPerDestination, 0, 7);
  const std::uint16_t a1 = gen.next(addr("1.1.1.1"));
  const std::uint16_t b1 = gen.next(addr("2.2.2.2"));
  const std::uint16_t a2 = gen.next(addr("1.1.1.1"));
  EXPECT_EQ(static_cast<std::uint16_t>(a1 + 1), a2);
  // Traffic to b must not have advanced a's counter.
  (void)b1;
  gen.advance(100);  // no effect for local counters
  EXPECT_EQ(static_cast<std::uint16_t>(a2 + 1), gen.next(addr("1.1.1.1")));
}

TEST(IpId, ZeroPolicyAlwaysZero) {
  IpIdGenerator gen(IpIdPolicy::kZero, 55, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.next(addr("1.2.3.4")), 0);
}

TEST(IpId, RandomPolicyNotMonotone) {
  IpIdGenerator gen(IpIdPolicy::kRandom, 0, 3);
  bool monotone = true;
  std::uint16_t prev = gen.next(addr("1.1.1.1"));
  for (int i = 0; i < 30; ++i) {
    const std::uint16_t cur = gen.next(addr("1.1.1.1"));
    const std::uint16_t delta = static_cast<std::uint16_t>(cur - prev);
    if (delta == 0 || delta >= 0x8000) monotone = false;
    prev = cur;
  }
  EXPECT_FALSE(monotone);
}

// ---------- traffic models ----------

TEST(Traffic, ConstantRateExpectedPackets) {
  TrafficModel m;
  m.base_rate = 4.0;
  EXPECT_DOUBLE_EQ(m.expected_packets(0.0, 2.5), 10.0);
  EXPECT_DOUBLE_EQ(m.rate_at(100.0), 4.0);
}

TEST(Traffic, TrendIntegratesLinearly) {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kTrend;
  m.base_rate = 2.0;
  m.trend_per_sec = 1.0;
  // ∫_0^4 (2 + t) dt = 8 + 8 = 16.
  EXPECT_NEAR(m.expected_packets(0.0, 4.0), 16.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.rate_at(3.0), 5.0);
}

TEST(Traffic, SeasonalFullPeriodAveragesToBase) {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kSeasonal;
  m.base_rate = 5.0;
  m.season_amplitude = 3.0;
  m.season_period_s = 10.0;
  EXPECT_NEAR(m.expected_packets(0.0, 10.0), 50.0, 1e-9);
  EXPECT_NEAR(m.rate_at(2.5), 8.0, 1e-9);  // peak of the sine
}

TEST(Traffic, RateNeverNegative) {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kSeasonal;
  m.base_rate = 1.0;
  m.season_amplitude = 5.0;
  m.season_period_s = 10.0;
  EXPECT_DOUBLE_EQ(m.rate_at(7.5), 0.0);  // trough clamped
}

TEST(Traffic, ProcessMeanMatchesModel) {
  TrafficModel m;
  m.base_rate = 6.0;
  BackgroundProcess proc(m, 99);
  std::uint64_t total = 0;
  for (int i = 0; i < 1000; ++i) {
    total += proc.packets_between(microseconds(i), microseconds(i + 1));
  }
  EXPECT_NEAR(static_cast<double>(total) / 1000.0, 6.0, 0.3);
}

TEST(Traffic, EmptyIntervalZeroPackets) {
  BackgroundProcess proc({}, 1);
  EXPECT_EQ(proc.packets_between(500, 500), 0u);
  EXPECT_EQ(proc.packets_between(600, 500), 0u);
}

// ---------- hosts + forwarding fixture ----------

// Topology: provider 1 over {2, 3}; hosts in 2 and 3.
struct PlaneFixture {
  AsGraph graph;
  std::unique_ptr<RoutingSystem> routing;
  std::unique_ptr<DataPlane> plane;

  PlaneFixture() {
    for (Asn a : {1u, 2u, 3u}) graph.add_as({a, ""});
    graph.add_p2c(1, 2);
    graph.add_p2c(1, 3);
    routing = std::make_unique<RoutingSystem>(graph);
    routing->announce({pfx("10.2.0.0/16"), 2});
    routing->announce({pfx("10.3.0.0/16"), 3});
    plane = std::make_unique<DataPlane>(*routing, 1234);
  }

  Host* add_host(Asn asn, const char* address,
                 std::vector<std::uint16_t> ports = {80},
                 bool capture = false) {
    HostConfig config;
    config.address = addr(address);
    config.open_ports = std::move(ports);
    config.capture = capture;
    config.background.base_rate = 0.0;
    config.seed = config.address.value();
    return plane->add_host(asn, config);
  }
};

TEST(DataPlane, SynToOpenPortYieldsSynAck) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  Host* observer = fx.add_host(3, "10.3.0.1", {}, /*capture=*/true);

  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  // Stop before the RTO fires — the capture host never completes the
  // handshake, so running to quiescence would also see retransmissions.
  fx.plane->sim().run_until(microseconds(1.0));
  ASSERT_EQ(observer->captured().size(), 1u);
  EXPECT_TRUE(observer->captured()[0].second.is_syn_ack());
}

TEST(DataPlane, SynToClosedPortYieldsRst) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1", {443});
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run();
  ASSERT_EQ(observer->captured().size(), 1u);
  EXPECT_TRUE(observer->captured()[0].second.is_rst());
}

TEST(DataPlane, UnsolicitedSynAckYieldsRst) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 9999,
                                      TcpFlags::kSyn | TcpFlags::kAck, 0));
  fx.plane->sim().run();
  ASSERT_EQ(observer->captured().size(), 1u);
  EXPECT_TRUE(observer->captured()[0].second.is_rst());
}

TEST(DataPlane, RtoRetransmissionWhenUnanswered) {
  PlaneFixture fx;
  HostConfig config;
  config.address = addr("10.2.0.1");
  config.open_ports = {80};
  config.rto_seconds = 1.0;
  config.max_retransmits = 2;
  config.seed = 5;
  fx.plane->add_host(2, config);
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);

  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run();
  // Initial SYN/ACK + 2 retransmissions (exponential backoff at 1s, 2s).
  ASSERT_EQ(observer->captured().size(), 3u);
  const TimeUs t0 = observer->captured()[0].first;
  const TimeUs t1 = observer->captured()[1].first;
  const TimeUs t2 = observer->captured()[2].first;
  EXPECT_NEAR(to_seconds(t1 - t0), 1.0, 0.05);
  EXPECT_NEAR(to_seconds(t2 - t1), 2.0, 0.05);
}

TEST(DataPlane, RstCancelsRetransmission) {
  PlaneFixture fx;
  HostConfig config;
  config.address = addr("10.2.0.1");
  config.open_ports = {80};
  config.rto_seconds = 1.0;
  config.seed = 5;
  fx.plane->add_host(2, config);
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);

  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run_until(microseconds(0.2));
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kRst, 0));
  fx.plane->sim().run();
  EXPECT_EQ(observer->captured().size(), 1u);  // no retransmission
}

TEST(DataPlane, DeviantHostRetransmitsAfterRst) {
  PlaneFixture fx;
  HostConfig config;
  config.address = addr("10.2.0.1");
  config.open_ports = {80};
  config.rto_seconds = 1.0;
  config.retransmit_after_rst = true;  // §4.1 condition (c) violator
  config.seed = 5;
  fx.plane->add_host(2, config);
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);

  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run_until(microseconds(0.2));
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kRst, 0));
  fx.plane->sim().run();
  EXPECT_GT(observer->captured().size(), 1u);
}

TEST(DataPlane, NoRtoHostNeverRetransmits) {
  PlaneFixture fx;
  HostConfig config;
  config.address = addr("10.2.0.1");
  config.open_ports = {80};
  config.implements_rto = false;  // §4.1 condition (b) violator
  config.seed = 5;
  fx.plane->add_host(2, config);
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run();
  EXPECT_EQ(observer->captured().size(), 1u);
}

TEST(DataPlane, BackgroundTrafficAdvancesGlobalIpId) {
  PlaneFixture fx;
  HostConfig config;
  config.address = addr("10.2.0.1");
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.base_rate = 100.0;
  config.seed = 5;
  Host* host = fx.plane->add_host(2, config);
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);

  // Two probes 1 s apart: the second RST's IP-ID must be ~100 higher.
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 9999,
                                      TcpFlags::kSyn | TcpFlags::kAck, 0));
  fx.plane->sim().run_until(microseconds(1.0));
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5556, 9999,
                                      TcpFlags::kSyn | TcpFlags::kAck, 0));
  fx.plane->sim().run();
  (void)host;
  ASSERT_EQ(observer->captured().size(), 2u);
  const std::uint16_t delta = static_cast<std::uint16_t>(
      observer->captured()[1].second.ip.identification -
      observer->captured()[0].second.ip.identification);
  EXPECT_NEAR(static_cast<double>(delta), 100.0, 40.0);
}

TEST(DataPlane, PathComputationAndDelivery) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  const PathResult path = fx.plane->compute_path(3, addr("10.2.0.1"));
  EXPECT_TRUE(path.delivered);
  EXPECT_EQ(path.hops, (std::vector<Asn>{3, 1, 2}));
}

TEST(DataPlane, NoHostDrop) {
  PlaneFixture fx;
  const PathResult path = fx.plane->compute_path(3, addr("10.2.0.99"));
  EXPECT_FALSE(path.delivered);
  EXPECT_EQ(path.reason, DropReason::kNoHost);
}

TEST(DataPlane, NoRouteDrop) {
  PlaneFixture fx;
  const PathResult path = fx.plane->compute_path(3, addr("99.0.0.1"));
  EXPECT_FALSE(path.delivered);
  EXPECT_EQ(path.reason, DropReason::kNoRoute);
}

TEST(DataPlane, MostSpecificPrefixWinsAtEachHop) {
  // The Fig. 9 mechanism: AS 1 holds both the /16 (origin 2) and a /24
  // inside it (origin 3); traffic for the /24 address must go to 3.
  PlaneFixture fx;
  fx.routing->announce({pfx("10.2.9.0/24"), 3});
  fx.plane->routing().invalidate_all();
  fx.add_host(3, "10.2.9.1");
  const PathResult path = fx.plane->compute_path(2, addr("10.2.9.1"));
  EXPECT_TRUE(path.delivered);
  EXPECT_EQ(path.hops.back(), 3u);
}

TEST(DataPlane, ScopedDefaultRoute) {
  PlaneFixture fx;
  fx.add_host(3, "10.3.0.1");
  // AS 2 gets full ROV and a default route toward AS 1 scoped to
  // 10.3.0.0/16; the /16 route is filtered... simulate by just removing
  // the route: use a prefix AS 2 has no route for.
  AsPolicy policy;
  policy.default_route = 1;
  policy.default_route_scope = pfx("99.0.0.0/8");
  fx.routing->set_policy(2, policy);

  // Out of scope: still no route.
  EXPECT_FALSE(fx.plane->compute_path(2, addr("98.0.0.1")).delivered);
  // In scope: handed to AS 1 — which has no route either, so the drop
  // moves to AS 1 (the default route was followed).
  const PathResult path = fx.plane->compute_path(2, addr("99.0.0.1"));
  EXPECT_FALSE(path.delivered);
  ASSERT_GE(path.hops.size(), 2u);
  EXPECT_EQ(path.hops[1], 1u);
}

TEST(DataPlane, SavEgressDropsSpoofedSource) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  fx.plane->set_filter(3, {.sav_egress = true});
  const Packet spoofed = Packet::make_tcp(
      addr("10.2.0.77"), addr("10.2.0.1"), 1, 80, TcpFlags::kSyn, 0);
  const PathResult r = fx.plane->evaluate(3, spoofed);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::kSavEgress);
  // Non-spoofed traffic passes.
  const Packet honest = Packet::make_tcp(
      addr("10.3.0.1"), addr("10.2.0.1"), 1, 80, TcpFlags::kSyn, 0);
  EXPECT_TRUE(fx.plane->evaluate(3, honest).delivered);
}

TEST(DataPlane, EgressFilterDropsInvalidSource) {
  PlaneFixture fx;
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});  // AS 3's announcement invalid
  fx.routing->set_vrps(std::move(vrps));
  fx.add_host(2, "10.2.0.1");
  fx.plane->set_filter(3, {.egress_drop_invalid_source = true});
  const Packet p = Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"), 1,
                                    80, TcpFlags::kSyn, 0);
  const PathResult r = fx.plane->evaluate(3, p);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::kEgressFilter);
}

TEST(DataPlane, IngressFilterDropsExternalTraffic) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  fx.plane->set_filter(2, {.ingress_drop_external = true});
  const Packet p = Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"), 1,
                                    80, TcpFlags::kSyn, 0);
  const PathResult r = fx.plane->evaluate(3, p);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::kIngressFilter);
}

TEST(DataPlane, RandomLossInjection) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1");
  Host* observer = fx.add_host(3, "10.3.0.1", {}, true);
  fx.plane->set_loss_probability(1.0);
  observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                      5555, 80, TcpFlags::kSyn, 0));
  fx.plane->sim().run();
  EXPECT_TRUE(observer->captured().empty());
  EXPECT_EQ(fx.plane->packets_dropped(DropReason::kRandomLoss), 1u);
}

TEST(DataPlane, RovAsHasNoRouteToInvalidPrefix) {
  PlaneFixture fx;
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});
  fx.routing->set_vrps(std::move(vrps));
  AsPolicy full;
  full.rov = RovMode::kFull;
  fx.routing->set_policy(2, full);
  fx.add_host(3, "10.3.0.1");

  const PathResult r = fx.plane->compute_path(2, addr("10.3.0.1"));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::kNoRoute);
}

// On frozen routing send() reuses each flow's forwarding verdict; a host
// or filter added afterwards must still change what the next packet sees.
TEST(DataPlane, FrozenRoutingSendSeesLaterHostsAndFilters) {
  PlaneFixture fx;
  fx.routing->freeze();
  Host* observer = fx.add_host(3, "10.3.0.1", {}, /*capture=*/true);
  const auto syn = [&](std::uint16_t src_port) {
    observer->send_raw(Packet::make_tcp(addr("10.3.0.1"), addr("10.2.0.1"),
                                        src_port, 80, TcpFlags::kSyn, 0));
    fx.plane->sim().run_until(fx.plane->sim().now() + microseconds(1.0));
  };

  syn(5001);
  EXPECT_EQ(fx.plane->packets_dropped(DropReason::kNoHost), 1u);
  EXPECT_TRUE(observer->captured().empty());

  // A closed port answers with a RST, which leaves no retransmission
  // behind to blur the next step.
  fx.add_host(2, "10.2.0.1", {});
  syn(5002);
  ASSERT_EQ(observer->captured().size(), 1u);
  EXPECT_TRUE(observer->captured()[0].second.is_rst());

  fx.plane->set_filter(2, {.ingress_drop_external = true});
  syn(5003);
  EXPECT_EQ(fx.plane->packets_dropped(DropReason::kIngressFilter), 1u);
  EXPECT_EQ(observer->captured().size(), 1u);
}

TEST(DataPlane, AddHostRejectsDuplicateAddress) {
  PlaneFixture fx;
  EXPECT_NE(fx.add_host(2, "10.2.0.1"), nullptr);
  EXPECT_EQ(fx.add_host(2, "10.2.0.1"), nullptr);
  EXPECT_EQ(fx.plane->as_of(addr("10.2.0.1")), 2u);
  EXPECT_EQ(fx.plane->as_of(addr("10.2.0.2")), 0u);
}

// ---------- traceroute ----------

TEST(Traceroute, ReachesOpenPort) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1", {80});
  const TracerouteResult tr =
      tcp_traceroute(*fx.plane, 3, addr("10.2.0.1"), 80);
  EXPECT_TRUE(tr.reached);
  EXPECT_EQ(tr.hops, (std::vector<Asn>{3, 1, 2}));
}

TEST(Traceroute, ClosedPortNotReached) {
  PlaneFixture fx;
  fx.add_host(2, "10.2.0.1", {443});
  const TracerouteResult tr =
      tcp_traceroute(*fx.plane, 3, addr("10.2.0.1"), 80);
  EXPECT_FALSE(tr.reached);
  EXPECT_EQ(tr.stop_reason, DropReason::kNoHost);
}

TEST(Traceroute, StopsWhereRouteEnds) {
  PlaneFixture fx;
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});
  fx.routing->set_vrps(std::move(vrps));
  AsPolicy full;
  full.rov = RovMode::kFull;
  fx.routing->set_policy(2, full);
  fx.add_host(3, "10.3.0.1", {80});
  const TracerouteResult tr =
      tcp_traceroute(*fx.plane, 2, addr("10.3.0.1"), 80);
  EXPECT_FALSE(tr.reached);
  EXPECT_EQ(tr.hops, (std::vector<Asn>{2}));
}

}  // namespace
