// Fabric generator + mixed-traffic + population-scale driver tests
// (src/exp/fabric.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/domain_runner.h"
#include "exp/fabric.h"
#include "util/heap_count.h"
#include "util/rng.h"
#include "util/time.h"

namespace pels {
namespace {

FabricConfig parking_lot(int hops) {
  FabricConfig cfg;
  cfg.kind = FabricConfig::Kind::kParkingLot;
  cfg.hops = hops;
  cfg.core_bandwidth_bps = 4e6;
  return cfg;
}

FabricConfig fat_tree(int pods, int racks, int hosts, bool domain_per_pod = false) {
  FabricConfig cfg;
  cfg.kind = FabricConfig::Kind::kFatTree;
  cfg.pods = pods;
  cfg.racks_per_pod = racks;
  cfg.hosts_per_rack = hosts;
  cfg.domain_per_pod = domain_per_pod;
  return cfg;
}

TEST(FabricTest, ParkingLotGeometry) {
  Fabric f(parking_lot(3));
  EXPECT_EQ(f.hosts().size(), 4u);
  EXPECT_EQ(f.core_queue_count(), 3u);
  EXPECT_EQ(f.domain_count(), 1);
  // Every bottleneck meter stamps its own router id, in creation order.
  std::set<std::int32_t> ids;
  for (std::size_t i = 0; i < f.core_queue_count(); ++i) {
    ids.insert(f.core_queue(i).config().router_id);
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(FabricTest, ParkingLotRoutesEndToEnd) {
  Fabric f(parking_lot(2));
  // A packet from H0 to the far end crosses every chain link and arrives.
  Packet pkt;
  pkt.flow = 7;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  f.sim().run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
  EXPECT_EQ(f.core_links()[0]->packets_delivered(), 1u);
  EXPECT_EQ(f.core_links()[1]->packets_delivered(), 1u);
}

TEST(FabricTest, FatTreeGeometry) {
  Fabric f(fat_tree(2, 2, 3));
  EXPECT_EQ(f.hosts().size(), 12u);
  // Bottlenecks: one pod uplink per pod plus one rack uplink per rack.
  EXPECT_EQ(f.core_queue_count(), 2u + 4u);
  EXPECT_EQ(f.domain_count(), 1);

  // Cross-pod delivery works (host in pod 0 to host in pod 1).
  Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  f.sim().run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
}

TEST(FabricTest, FatTreeDomainPerPodMapsOntoDomains) {
  Fabric f(fat_tree(3, 1, 2, /*domain_per_pod=*/true));
  EXPECT_EQ(f.domain_count(), 3);  // one per pod; the core has none
  // Hosts land in their pod's domain: pod p is domain p.
  for (std::size_t h = 0; h < f.hosts().size(); ++h) {
    EXPECT_EQ(f.host_domain(h), static_cast<int>(h / 2));
  }
  // The hostless core is a transit router, and the pod uplinks are the only
  // boundary links; their delay is the conservative lookahead.
  Topology& topo = f.topology();
  EXPECT_TRUE(topo.is_transit(0));
  EXPECT_EQ(topo.node(0).name(), "core");
  EXPECT_EQ(topo.boundary_links().size(), 3u);
  EXPECT_EQ(topo.min_boundary_delay(), f.config().core_delay);

  // Structurally runnable under DomainRunner: cross-pod traffic crosses one
  // boundary mailbox, straight into the destination pod, and arrives.
  DomainRunner runner(topo);
  Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  runner.run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
  EXPECT_EQ(runner.stats().handoffs, 1u);
}

TEST(FabricTest, MixedTrafficIsDeterministicAndWellFormed) {
  Fabric f(parking_lot(3));
  MixedTrafficConfig cfg;
  cfg.video_flows = 20;
  cfg.mice_flows = 15;
  cfg.elephant_flows = 3;
  cfg.seed = 99;
  const auto a = gen_mixed_traffic(f, cfg);
  const auto b = gen_mixed_traffic(f, cfg);
  ASSERT_EQ(a.size(), 38u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].src_host, b[i].src_host);
    EXPECT_EQ(a[i].dst_host, b[i].dst_host);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);
    EXPECT_NE(a[i].src_host, a[i].dst_host);
    EXPECT_GE(a[i].src_host, 0);
    EXPECT_LT(a[i].src_host, 4);
    if (i > 0) {
      EXPECT_LE(a[i - 1].start, a[i].start);
    }
    if (a[i].cls == TrafficClass::kMice) {
      EXPECT_GE(a[i].total_bytes, a[i].packet_bytes);
    } else {
      EXPECT_EQ(a[i].total_bytes, 0);
    }
  }
  // A different seed reshuffles the mix.
  MixedTrafficConfig other = cfg;
  other.seed = 100;
  const auto c = gen_mixed_traffic(f, other);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || c[i].src_host != a[i].src_host || c[i].start != a[i].start;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FabricTest, ManyFlowDriverRunsMixToCompletion) {
  Fabric f(parking_lot(2));
  MixedTrafficConfig mix;
  mix.video_flows = 8;
  mix.mice_flows = 6;
  mix.elephant_flows = 1;
  mix.start_window = from_seconds(0.5);
  ManyFlowDriverConfig cfg;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), cfg);
  f.reserve_runtime(driver.flow_count());
  driver.start();
  driver.run_until(8 * kSecond);

  EXPECT_EQ(driver.flow_count(), 15u);
  EXPECT_GT(driver.packets_sent(), 1000u);
  EXPECT_GT(driver.packets_received(), 0u);
  EXPECT_GT(driver.control_ticks(), 30u);

  // Mice complete and free their slots; video and elephants keep running.
  std::size_t mice_done = 0;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) ++mice_done;
  }
  EXPECT_GT(mice_done, 0u);
  EXPECT_EQ(driver.live_flows(), driver.flow_count() - mice_done);

  // Feedback reached the population: rates moved off the initial point but
  // stayed within the controller's clamp and the driver's cap.
  bool any_rate_moved = false;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) continue;
    const double r = driver.flow_rate_bps(i);
    EXPECT_GE(r, cfg.mkc.min_rate_bps);
    EXPECT_LE(r, cfg.mkc.max_rate_bps);
    any_rate_moved = any_rate_moved || r != cfg.mkc.initial_rate_bps;
  }
  EXPECT_TRUE(any_rate_moved);
}

TEST(FabricTest, ManyFlowDriverIsDeterministic) {
  const auto run = [] {
    Fabric f(parking_lot(2));
    MixedTrafficConfig mix;
    mix.video_flows = 6;
    mix.mice_flows = 4;
    ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
    driver.start();
    driver.run_until(4 * kSecond);
    std::vector<double> rates;
    for (std::size_t i = 0; i < driver.flow_count(); ++i) {
      rates.push_back(driver.flow_done(i) ? -1.0 : driver.flow_rate_bps(i));
    }
    return std::tuple{driver.packets_sent(), driver.packets_received(), rates};
  };
  EXPECT_EQ(run(), run());
}

TEST(FabricTest, ManyFlowDriverSlotReuseKeepsLiveFlowsCorrect) {
  // Two waves of bounded video flows around one unbounded video flow: the
  // second wave must reuse the first wave's freed slots (no column growth).
  // An unbounded elephant and a bounded mouse per wave run alongside: they
  // are fixed-rate, take no slot, and live_flows() still counts them.
  Fabric f(parking_lot(1));
  std::vector<FlowSpec> specs;
  FlowSpec video;
  video.cls = TrafficClass::kVideo;
  video.src_host = 0;
  video.dst_host = 1;
  video.rate_bps = 128e3;
  specs.push_back(video);
  FlowSpec elephant = video;
  elephant.cls = TrafficClass::kElephant;
  elephant.rate_bps = 2e6;
  specs.push_back(elephant);
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 4; ++i) {
      FlowSpec bounded = video;
      bounded.start = wave * kSecond;
      bounded.total_bytes = 3000;  // 3 packets, done in ~130 ms
      specs.push_back(bounded);
    }
    FlowSpec mouse = video;
    mouse.cls = TrafficClass::kMice;
    mouse.start = wave * kSecond;
    mouse.rate_bps = 400e3;
    mouse.total_bytes = 3000;
    specs.push_back(mouse);
  }
  ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();

  // Mid wave 1: every flow is live, but only the five video flows hold slots.
  driver.run_until(from_millis(10));
  EXPECT_EQ(driver.live_flows(), 7u);
  EXPECT_EQ(driver.flow_table().size(), 5u);

  driver.run_until(3 * kSecond);
  std::size_t done = 0;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) ++done;
  }
  EXPECT_EQ(done, 10u);  // every bounded video flow and mouse reached flow_done
  EXPECT_EQ(driver.live_flows(), 2u);  // the unbounded video flow and the elephant
  EXPECT_EQ(driver.flow_table().size(), 1u);
  // High-water concurrency was wave 1 (5 video flows); wave 2 reused the
  // freed slots instead of growing the columns.
  EXPECT_EQ(driver.flow_table().capacity(), 5u);
  // The elephant (flow id 1) reports its fixed rate.
  EXPECT_EQ(driver.flow_rate_bps(1), 2e6);
}

TEST(FabricTest, ManyFlowDriverRunUntilRejectsMultiDomainFabrics) {
  // Multi-domain fabrics are accepted (that is the point of sharding) but
  // must be driven through a DomainRunner, not the in-place run_until.
  Fabric f(fat_tree(2, 1, 1, /*domain_per_pod=*/true));
  ManyFlowDriver driver(f, {}, ManyFlowDriverConfig{});
  driver.start();
  EXPECT_THROW(driver.run_until(kSecond), std::logic_error);
}

TEST(FabricTest, ManyFlowDriverShardsPartitionBySourceDomain) {
  Fabric f(fat_tree(2, 2, 2, /*domain_per_pod=*/true));
  MixedTrafficConfig mix;
  mix.video_flows = 10;
  mix.mice_flows = 5;
  mix.seed = 11;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
  ASSERT_EQ(driver.shard_count(), 2u);  // one per pod
  // Each pod shard's table grows to its own population once everything
  // activates.
  driver.start();
  DomainRunner runner(f.topology(), 1);
  runner.run_until(2 * kSecond);
  EXPECT_GT(driver.flow_table(0).capacity(), 0u);
  EXPECT_GT(driver.flow_table(1).capacity(), 0u);
}

// Every packet the driver sent was delivered, dropped (by a queue, on a wire
// or for want of a route), is queued, on a wire, or waits in a handoff
// inbox — the accounting perfbench's conservation check does, which reads
// the transit core's packets_forwarded(). Returns the packets in handoff.
std::uint64_t expect_conserved(Fabric& f, const ManyFlowDriver& driver) {
  Topology& topo = f.topology();
  std::uint64_t dropped = 0, queued = 0, on_wire = 0, link_delivered = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const Link& link = topo.link(i);
    const QueueDisc& q = link.queue();
    EXPECT_EQ(q.counters().total_arrivals(),
              q.counters().total_drops() + q.packet_count() + link.packets_in_flight() +
                  link.packets_delivered() + link.packets_corrupted())
        << "link " << i;
    dropped += q.counters().total_drops() + link.packets_corrupted();
    queued += q.packet_count();
    on_wire += link.packets_in_flight();
    link_delivered += link.packets_delivered();
  }
  std::uint64_t node_received = 0;
  for (std::size_t id = 0; id < topo.node_count(); ++id) {
    Node& n = topo.node(static_cast<NodeId>(id));
    if (const auto* h = dynamic_cast<const Host*>(&n)) {
      node_received += h->packets_received();
      dropped += h->packets_undeliverable();
    } else if (const auto* r = dynamic_cast<const Router*>(&n)) {
      node_received += r->packets_forwarded() + r->packets_unroutable();
      dropped += r->packets_unroutable();
    }
  }
  EXPECT_LE(node_received, link_delivered);
  const std::uint64_t in_handoff = link_delivered - node_received;
  EXPECT_EQ(driver.packets_sent(),
            driver.packets_received() + dropped + queued + on_wire + in_handoff);
  return in_handoff;
}

TEST(FabricTest, TransitCoreForwardCountIsExactAtAnyThreadCount) {
  // Every pod forwards through the core on its own thread, each in its own
  // lane; the sum must equal, packet for packet, what the core offered its
  // downlinks, and must not depend on the thread count.
  const auto run = [](unsigned threads) {
    Fabric f(fat_tree(4, 2, 2, /*domain_per_pod=*/true));
    MixedTrafficConfig mix;
    mix.video_flows = 48;
    mix.mice_flows = 24;
    mix.elephant_flows = 4;
    mix.seed = 31;
    ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
    f.reserve_runtime(driver.flow_count());
    driver.start();
    DomainRunner runner(f.topology(), threads);
    runner.run_until(3 * kSecond + 7 * kMillisecond);  // packets mid-handoff
    const auto& core = dynamic_cast<const Router&>(f.topology().node(0));
    std::uint64_t offered = 0;
    for (int p = 0; p < 4; ++p) {
      const Host& in_pod = *f.hosts()[static_cast<std::size_t>(p) * 4];
      offered += core.routing().route_to(in_pod.id())->queue().counters().total_arrivals();
    }
    EXPECT_EQ(core.packets_forwarded(), offered) << "threads=" << threads;
    EXPECT_EQ(core.packets_unroutable(), 0u) << "threads=" << threads;
    const std::uint64_t in_handoff = expect_conserved(f, driver);
    EXPECT_GT(in_handoff, 0u) << "threads=" << threads;
    // One handoff per packet through the core: up a pod uplink, straight
    // to its destination pod (or still waiting in that pod's inbox).
    EXPECT_EQ(runner.stats().handoffs, core.packets_forwarded() + in_handoff)
        << "threads=" << threads;
    return std::tuple{core.packets_forwarded(), driver.fingerprint(), runner.stats().handoffs};
  };
  const auto serial = run(1);
  EXPECT_GT(std::get<0>(serial), 1000u);
  EXPECT_EQ(run(4), serial);
}

TEST(FabricTest, DomainPerPodTreeWithOnePodStaysLocal) {
  // One pod is one domain: the transit core's links in and out all run in
  // it, so nothing is a boundary link and the runner degenerates to a
  // plain sequential run that still conserves packets.
  Fabric f(fat_tree(1, 2, 2, /*domain_per_pod=*/true));
  EXPECT_EQ(f.domain_count(), 1);
  EXPECT_TRUE(f.topology().is_transit(0));
  EXPECT_TRUE(f.topology().boundary_links().empty());
  EXPECT_EQ(f.topology().min_boundary_delay(), kTimeNever);
  MixedTrafficConfig mix;
  mix.video_flows = 12;
  mix.mice_flows = 6;
  mix.elephant_flows = 1;
  mix.seed = 5;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();
  DomainRunner runner(f.topology(), 4);
  runner.run_until(2 * kSecond + 3 * kMillisecond);
  EXPECT_EQ(runner.stats().effective_threads, 1u);
  EXPECT_EQ(runner.stats().handoffs, 0u);
  EXPECT_GT(driver.packets_received(), 100u);
  expect_conserved(f, driver);
}

TEST(FabricTest, ManyFlowDriverShardedFatTreeByteIdenticalAcrossThreads) {
  // The tentpole pin: one driver shard per pod under DomainRunner, and the
  // end state (per-flow sends, rate/gamma bit patterns, deliveries) is
  // byte-identical whatever the thread count. Threads beyond the hardware
  // (8 on CI boxes) exercise oversubscription clamping too.
  const auto run = [](std::size_t threads) {
    Fabric f(fat_tree(2, 2, 2, /*domain_per_pod=*/true));
    MixedTrafficConfig mix;
    mix.video_flows = 12;
    mix.mice_flows = 8;
    mix.elephant_flows = 2;
    mix.seed = 7;
    ManyFlowDriverConfig cfg;
    ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), cfg);
    f.reserve_runtime(driver.flow_count());
    driver.start();
    DomainRunner runner(f.topology(), threads);
    runner.run_until(4 * kSecond);
    EXPECT_GT(runner.stats().handoffs, 0u);  // cross-pod feedback flowed
    return std::tuple{driver.fingerprint(), driver.packets_sent(),
                      driver.packets_received(), driver.bytes_received()};
  };
  const auto serial = run(1);
  EXPECT_GT(std::get<1>(serial), 1000u);
  EXPECT_GT(std::get<2>(serial), 0u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

// Runs `specs` on `f` with pools sized by reserve_runtime and expects no
// domain's scheduler pool to grow over [warmup, warmup + window].
void expect_no_pool_growth(Fabric& f, std::vector<FlowSpec> specs, SimTime warmup,
                           SimTime window) {
  std::stable_sort(specs.begin(), specs.end(),
                   [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; });
  ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();
  DomainRunner runner(f.topology(), 2);
  runner.run_until(warmup);
  std::vector<Scheduler::Stats> before;
  for (int d = 0; d < f.domain_count(); ++d) before.push_back(f.sim(d).scheduler().stats());
  runner.run_until(warmup + window);
  EXPECT_GT(runner.stats().handoffs, 0u);
  for (int d = 0; d < f.domain_count(); ++d) {
    const Scheduler::Stats& b = before[static_cast<std::size_t>(d)];
    const Scheduler::Stats a = f.sim(d).scheduler().stats();
    EXPECT_GT(a.executed, b.executed) << "domain " << d;
    EXPECT_EQ(a.heap_capacity, b.heap_capacity) << "domain " << d;
    EXPECT_EQ(a.slot_capacity, b.slot_capacity) << "domain " << d;
    EXPECT_EQ(a.wheel_capacity, b.wheel_capacity) << "domain " << d;
    EXPECT_EQ(a.run_capacity, b.run_capacity) << "domain " << d;
  }
}

// Mice from gen_mixed_traffic with starts spread over [0, span).
std::vector<FlowSpec> mice_through(const Fabric& f, std::size_t count, SimTime span,
                                   std::uint64_t seed) {
  MixedTrafficConfig churn;
  churn.video_flows = 0;
  churn.mice_flows = count;
  churn.elephant_flows = 0;
  churn.start_window = span;
  churn.seed = seed;
  return gen_mixed_traffic(f, churn);
}

TEST(FabricTest, DomainPoolsDoNotGrowInTheWindow) {
  // reserve_runtime sizes each domain for its own share (links it drives,
  // the transit core's downlinks included, flows its hosts source, arrivals
  // on the channels into it), not for the whole fabric. The share must
  // still cover the steady state: a domain_per_pod fat tree under video
  // load, elephants and mice arriving through the whole run grows no
  // scheduler pool in any pod domain over the measured window.
  const SimTime warmup = 2 * kSecond;
  const SimTime window = 2 * kSecond;
  {
    SCOPED_TRACE("random mix");
    Fabric f(fat_tree(4, 2, 4, /*domain_per_pod=*/true));
    MixedTrafficConfig base;
    base.video_flows = 640;
    base.mice_flows = 0;
    base.elephant_flows = 8;
    base.seed = 21;
    std::vector<FlowSpec> specs = gen_mixed_traffic(f, base);
    const std::vector<FlowSpec> mice = mice_through(f, 400, warmup + window, 22);
    specs.insert(specs.end(), mice.begin(), mice.end());
    expect_no_pool_growth(f, std::move(specs), warmup, window);
  }
  {
    // The balanced population of the fattree-churn benchmark, three times
    // the random mix's videos: every host sources 62 videos at one rate,
    // spread evenly over the other hosts in a seeded order, two elephants
    // leave each pod, and mice arrive at 150/s.
    SCOPED_TRACE("balanced mix");
    Fabric f(fat_tree(4, 2, 4, /*domain_per_pod=*/true));
    const MixedTrafficConfig defaults;
    const int hosts = static_cast<int>(f.hosts().size());
    const int pods = f.config().pods;
    const int per_pod = hosts / pods;
    Rng rng(23, /*stream=*/0xFA7);
    const auto start_in_first_second = [&rng] {
      return static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(kSecond)));
    };
    std::vector<FlowSpec> specs;
    for (int src = 0; src < hosts; ++src) {
      std::vector<int> peers;
      for (int dst = 0; dst < hosts; ++dst)
        if (dst != src) peers.push_back(dst);
      for (std::size_t i = peers.size() - 1; i > 0; --i)
        std::swap(peers[i], peers[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
      for (std::size_t k = 0; k < 62; ++k) {
        FlowSpec s;
        s.cls = TrafficClass::kVideo;
        s.src_host = src;
        s.dst_host = peers[k % peers.size()];
        s.start = start_in_first_second();
        s.rate_bps = defaults.video_rate_bps;
        s.packet_bytes = defaults.packet_bytes;
        specs.push_back(s);
      }
    }
    for (int e = 0; e < 2 * pods; ++e) {
      const int src_pod = e % pods;
      const int dst_pod = (src_pod + 1 + e / pods) % pods;
      FlowSpec s;
      s.cls = TrafficClass::kElephant;
      s.src_host = src_pod * per_pod + static_cast<int>(rng.uniform_int(0, per_pod - 1));
      s.dst_host = dst_pod * per_pod + static_cast<int>(rng.uniform_int(0, per_pod - 1));
      s.start = start_in_first_second();
      s.rate_bps = defaults.elephant_rate_bps;
      s.packet_bytes = defaults.packet_bytes;
      specs.push_back(s);
    }
    const std::vector<FlowSpec> mice =
        mice_through(f, static_cast<std::size_t>(150 * to_seconds(warmup + window)),
                     warmup + window, 24);
    specs.insert(specs.end(), mice.begin(), mice.end());
    expect_no_pool_growth(f, std::move(specs), warmup, window);
  }
}

// Hand-built mix for the pinned digests below: video flows that overload the
// 4 Mb/s core, one elephant, and two waves of finite mice. Mice sizes are
// fixed byte counts, not Pareto draws, so no libm call feeds the hashed end
// state.
std::vector<FlowSpec> pinned_mix(int hosts, int videos, int mice_per_wave) {
  const auto pair = [hosts](FlowSpec& s, int i) {
    s.src_host = i % hosts;
    s.dst_host = (s.src_host + 1 + (i / hosts) % (hosts - 1)) % hosts;
  };
  std::vector<FlowSpec> specs;
  for (int i = 0; i < videos; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kVideo;
    pair(s, i);
    s.start = i * from_millis(10);
    s.rate_bps = 128e3;
    specs.push_back(s);
  }
  FlowSpec elephant;
  elephant.cls = TrafficClass::kElephant;
  elephant.src_host = 0;  // crosses every tier: first host to last
  elephant.dst_host = hosts - 1;
  elephant.start = from_millis(500);
  elephant.rate_bps = 2e6;
  specs.push_back(elephant);
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < mice_per_wave; ++i) {
      FlowSpec mouse;
      mouse.cls = TrafficClass::kMice;
      pair(mouse, i + wave);
      mouse.start = (1 + 2 * wave) * kSecond + i * from_millis(5);
      mouse.rate_bps = 400e3;
      mouse.total_bytes = 20'000 + 1'000 * i;
      specs.push_back(mouse);
    }
  }
  return specs;
}

// Congestion reached the population: some core queue dropped packets and
// still signals overload, every live video slot took MKC labels and gamma
// updates, some gamma sits above the probing floor (FGS loss reached it),
// mice finished, and the tables hold the video flows alone: every video flow
// in the mix is unbounded and live by 0.3 s, so the peak number of
// concurrently live video flows — the tables' high-water mark — is `videos`.
void expect_congested_and_churned(Fabric& fabric, ManyFlowDriver& driver, int videos) {
  std::uint64_t core_drops = 0;
  bool overloaded = false;
  for (std::size_t q = 0; q < fabric.core_queue_count(); ++q) {
    const PelsQueue& queue = fabric.core_queue(q);
    for (const ColorCounters* c : {&queue.pels_group_counters(), &queue.internet_counters()}) {
      for (const std::uint64_t d : c->drops) core_drops += d;
    }
    overloaded = overloaded || queue.current_loss() > 0.0;
  }
  EXPECT_GT(core_drops, 0u);
  EXPECT_TRUE(overloaded);

  std::size_t done = 0;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) done += driver.flow_done(i) ? 1 : 0;
  EXPECT_GT(done, 0u);
  bool gamma_raised = false;
  std::size_t capacity = 0;
  std::size_t live_slots = 0;
  for (std::size_t shard = 0; shard < driver.shard_count(); ++shard) {
    const FlowTable& t = driver.flow_table(shard);
    capacity += t.capacity();
    live_slots += t.size();
    for (FlowSlot slot = 0; slot < t.capacity(); ++slot) {
      if (!t.is_live(slot) || t.mkc_updates(slot) == 0) continue;
      EXPECT_GT(t.gamma_updates(slot), 0u);
      gamma_raised = gamma_raised || t.gamma(slot) > GammaConfig{}.gamma_low;
    }
  }
  EXPECT_TRUE(gamma_raised);
  EXPECT_EQ(capacity, static_cast<std::size_t>(videos));
  EXPECT_EQ(live_slots, static_cast<std::size_t>(videos));
  // The elephant and the unfinished mice are live without a slot.
  EXPECT_EQ(driver.live_flows(), driver.flow_count() - done);
}

// Pins the population path's end state to committed constants (the
// byte-identity tests above only compare runs of one build with each
// other). A change that moves any ManyFlowDriver event, rate or gamma bit
// changes these; a pure refactor must not.
TEST(FabricTest, ManyFlowDriverPinnedPopulationDigests) {
  {
    Fabric f(parking_lot(2));
    constexpr int kVideos = 16;
    ManyFlowDriver driver(f, pinned_mix(3, kVideos, 6), ManyFlowDriverConfig{});
    f.reserve_runtime(driver.flow_count());
    driver.start();
    driver.run_until(6 * kSecond);
    expect_congested_and_churned(f, driver, kVideos);
    EXPECT_EQ(driver.fingerprint(), 13534016913580286263ull);
    EXPECT_EQ(driver.packets_sent(), 5564u);
    EXPECT_EQ(driver.packets_received(), 5415u);
  }
  for (const std::size_t threads : {1u, 4u}) {
    FabricConfig fc = fat_tree(2, 2, 2, /*domain_per_pod=*/true);
    fc.core_bandwidth_bps = 2e6;
    Fabric f(fc);
    constexpr int kVideos = 24;
    ManyFlowDriver driver(f, pinned_mix(8, kVideos, 8), ManyFlowDriverConfig{});
    f.reserve_runtime(driver.flow_count());
    driver.start();
    DomainRunner runner(f.topology(), threads);
    runner.run_until(6 * kSecond);
    expect_congested_and_churned(f, driver, kVideos);
    EXPECT_EQ(driver.fingerprint(), 11261918919568704078ull) << "threads " << threads;
    EXPECT_EQ(driver.packets_sent(), 5156u) << "threads " << threads;
    EXPECT_EQ(driver.packets_received(), 4284u) << "threads " << threads;
  }
}

// A generated mix (sorted by start, every start distinct) and a shuffled
// copy of it.
std::pair<std::vector<FlowSpec>, std::vector<FlowSpec>> sorted_and_shuffled_mix() {
  Fabric f(parking_lot(2));
  MixedTrafficConfig mix;
  mix.video_flows = 8;
  mix.mice_flows = 6;
  mix.elephant_flows = 2;
  mix.start_window = from_seconds(0.5);
  std::vector<FlowSpec> sorted = gen_mixed_traffic(f, mix);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(sorted[i - 1].start, sorted[i].start) << "ties would make the order ambiguous";
  }
  std::vector<FlowSpec> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  EXPECT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(),
                              [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; }));
  return {std::move(sorted), std::move(shuffled)};
}

// Flow ids are activation order, whatever order the specs arrive in: a
// shuffled copy of a generated mix runs flow for flow like the original.
TEST(FabricTest, ManyFlowDriverSortsAHandBuiltMix) {
  const auto [sorted, shuffled] = sorted_and_shuffled_mix();
  const auto run = [](std::vector<FlowSpec> specs) {
    Fabric f(parking_lot(2));
    ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
    f.reserve_runtime(driver.flow_count());
    driver.start();
    driver.run_until(4 * kSecond);
    std::vector<double> rates;  // per flow id; -1 for a finished flow
    for (std::size_t i = 0; i < driver.flow_count(); ++i) {
      rates.push_back(driver.flow_done(i) ? -1.0 : driver.flow_rate_bps(i));
    }
    return std::tuple{driver.fingerprint(), driver.packets_sent(), rates};
  };
  EXPECT_EQ(run(shuffled), run(sorted));
}

// Specs already in activation order are used as given: the driver makes
// one heap allocation fewer for them than for a shuffled copy, which it
// stable-sorts through a merge buffer.
TEST(FabricTest, ManyFlowDriverUsesSortedSpecsAsGiven) {
  const auto [sorted, shuffled] = sorted_and_shuffled_mix();
  const auto allocs_to_build = [](std::vector<FlowSpec> specs) {
    Fabric f(parking_lot(2));
    const std::uint64_t before = heap_counts().allocs;
    ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
    return heap_counts().allocs - before;
  };
  EXPECT_LT(allocs_to_build(sorted), allocs_to_build(shuffled));
}

// Equal starts keep their input order, sorted or not. Elephants report
// their spec rate, which tells the flows apart.
TEST(FabricTest, ManyFlowDriverKeepsInputOrderAmongEqualStarts) {
  const auto spec = [](SimTime start, double rate) {
    FlowSpec s;
    s.cls = TrafficClass::kElephant;
    s.src_host = 0;
    s.dst_host = 2;
    s.start = start;
    s.rate_bps = rate;
    return s;
  };
  const FlowSpec a = spec(kSecond, 100e3);
  const FlowSpec b = spec(from_millis(500), 200e3);
  const FlowSpec c = spec(kSecond, 300e3);
  const auto rates_by_id = [](std::vector<FlowSpec> specs) {
    Fabric f(parking_lot(2));
    ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
    driver.start();
    driver.run_until(2 * kSecond);
    std::vector<double> rates;
    for (std::size_t i = 0; i < driver.flow_count(); ++i) rates.push_back(driver.flow_rate_bps(i));
    return rates;
  };
  const std::vector<double> bac = {200e3, 100e3, 300e3};
  const std::vector<double> bca = {200e3, 300e3, 100e3};
  EXPECT_EQ(rates_by_id({a, b, c}), bac);  // unsorted: stable-sorted
  EXPECT_EQ(rates_by_id({c, b, a}), bca);
  EXPECT_EQ(rates_by_id({b, a, c}), bac);  // sorted: used as given
  EXPECT_EQ(rates_by_id({b, c, a}), bca);
}

TEST(FabricTest, ManyFlowDriverRejectsBadSpecsNamingFlowAndField) {
  Fabric f(parking_lot(2));  // hosts 0..2
  FlowSpec good;
  good.src_host = 0;
  good.dst_host = 2;
  good.rate_bps = 128e3;
  good.start = kSecond;
  // Each bad spec sits at index 1 but starts first: the message names the
  // caller's index, not the post-sort flow id.
  FlowSpec early = good;
  early.start = 0;
  const auto expect_rejected = [&](FlowSpec bad, const std::string& field) {
    try {
      ManyFlowDriver driver(f, {good, bad}, ManyFlowDriverConfig{});
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("flow 1: "), std::string::npos) << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
  };
  FlowSpec bad = early;
  bad.src_host = 3;
  expect_rejected(bad, "src_host 3 outside [0, 3)");
  bad = early;
  bad.dst_host = -1;
  expect_rejected(bad, "dst_host -1 outside [0, 3)");
  bad = early;
  bad.dst_host = bad.src_host;
  expect_rejected(bad, "src_host == dst_host");
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    bad = early;
    bad.rate_bps = rate;
    expect_rejected(bad, "rate_bps");
  }
  bad = early;
  bad.packet_bytes = 0;
  expect_rejected(bad, "packet_bytes");
  bad = early;
  bad.total_bytes = -1;
  expect_rejected(bad, "total_bytes");
  bad = early;
  bad.start = -1;
  expect_rejected(bad, "start");
  // The good spec alone constructs.
  EXPECT_NO_THROW(ManyFlowDriver(f, {good}, ManyFlowDriverConfig{}));
}

// One case per ManyFlowDriverConfig field validate() guards; each bad value
// used to hang run_until (a zero-period tick, an infinite or 1 ns pacing gap).
struct BadDriverField {
  std::string field;
  std::vector<double> values;
  void (*spoil)(ManyFlowDriverConfig&, double);
};

// Names each case by its field in test listings.
void PrintTo(const BadDriverField& bad, std::ostream* os) { *os << bad.field; }

class ManyFlowDriverConfigTest : public ::testing::TestWithParam<BadDriverField> {};

TEST_P(ManyFlowDriverConfigTest, RejectsFieldByName) {
  Fabric f(parking_lot(1));
  FlowSpec spec;
  spec.src_host = 0;
  spec.dst_host = 1;
  spec.rate_bps = 128e3;
  EXPECT_NO_THROW(ManyFlowDriverConfig{}.validate());
  for (const double v : GetParam().values) {
    ManyFlowDriverConfig cfg;
    GetParam().spoil(cfg, v);
    try {
      cfg.validate();
      ADD_FAILURE() << "validate() accepted " << GetParam().field << " = " << v;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos) << e.what();
    }
    EXPECT_THROW(ManyFlowDriver(f, {spec, spec}, cfg), std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ManyFlowDriverConfigTest,
    ::testing::Values(
        BadDriverField{"control_interval", {0.0, -1.0},
                       [](ManyFlowDriverConfig& c, double v) {
                         c.control_interval = static_cast<SimTime>(v);
                       }},
        BadDriverField{"max_rate_factor",
                       {0.0, -1.0, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()},
                       [](ManyFlowDriverConfig& c, double v) { c.max_rate_factor = v; }},
        BadDriverField{"green_fraction",
                       {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()},
                       [](ManyFlowDriverConfig& c, double v) { c.green_fraction = v; }}));

TEST(FabricTest, ManyFlowDriverClassCountsSplitTheMix) {
  Fabric f(parking_lot(2));
  MixedTrafficConfig mix;
  mix.video_flows = 6;
  mix.mice_flows = 4;
  mix.elephant_flows = 2;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();
  driver.run_until(4 * kSecond);

  const auto video = driver.class_counts(TrafficClass::kVideo);
  const auto mice = driver.class_counts(TrafficClass::kMice);
  const auto elephants = driver.class_counts(TrafficClass::kElephant);
  EXPECT_EQ(video.flows, 6u);
  EXPECT_EQ(mice.flows, 4u);
  EXPECT_EQ(elephants.flows, 2u);
  EXPECT_GT(video.packets_delivered, 0u);
  EXPECT_GT(video.bytes_delivered, video.packets_delivered);  // >1 B packets
  EXPECT_EQ(video.packets_sent + mice.packets_sent + elephants.packets_sent,
            driver.packets_sent());
  EXPECT_EQ(video.packets_delivered + mice.packets_delivered + elephants.packets_delivered,
            driver.packets_received());
  EXPECT_EQ(video.bytes_delivered + mice.bytes_delivered + elephants.bytes_delivered,
            driver.bytes_received());
}

}  // namespace
}  // namespace pels
