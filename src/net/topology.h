// Topology: owns nodes and links, wires them together, and computes static
// hop-count shortest-path routes.
//
// Queue disciplines are supplied per-link through factories so that generic
// code (tests, scenario builders) can attach DropTail edges and a PELS/RED
// bottleneck without this module depending on concrete disciplines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "net/router.h"
#include "sim/simulation.h"
#include "util/cache_line.h"
#include "util/ring_buffer.h"

namespace pels {

/// Builds the queue discipline for one unidirectional link; receives the
/// link bandwidth so capacity-aware disciplines (PELS feedback) can size
/// themselves.
using QueueFactory = std::function<std::unique_ptr<QueueDisc>(double bandwidth_bps)>;

class Topology {
 public:
  /// Single-domain topology: every node lives in domain 0, driven by `sim`.
  explicit Topology(Simulation& sim) : sim_(sim) { domain_sims_.push_back(&sim); }

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  // ------------------------------------------------------------------
  // Domain partitioning (conservative parallel DES, DESIGN.md "Parallel
  // experiments"). A domain is a set of nodes whose events are executed by
  // one Simulation/Scheduler; links between nodes of different domains are
  // *boundary* links and must have prop_delay > 0 — the minimum boundary
  // delay is the lookahead that bounds how far domains may run between
  // barriers (see exp/domain_runner.h). Single-domain topologies are
  // unaffected: domain 0 is the constructor's Simulation.
  // ------------------------------------------------------------------

  /// Registers an additional domain driven by `sim` (one Simulation per
  /// domain; do not reuse). Returns the new domain id. Add domains before
  /// the nodes that live in them.
  int add_domain(Simulation& sim);

  std::size_t domain_count() const { return domain_sims_.size(); }
  Simulation& domain_sim(int domain) {
    return *domain_sims_.at(static_cast<std::size_t>(domain));
  }
  int node_domain(NodeId id) const {
    return node_domains_.at(static_cast<std::size_t>(id));
  }

  /// A link whose packets are handed to other domains' threads: its
  /// endpoints live in different domains, or it feeds a transit router that
  /// another domain drives a link out of. The link is owned (and its events
  /// executed) by `from_domain`; its handoff channels start at
  /// `first_channel` in channels().
  struct BoundaryLink {
    Link* link;
    int from_domain;
    Router* transit;  // the transit router it feeds, or nullptr
    std::size_t first_channel;
  };
  const std::vector<BoundaryLink>& boundary_links() const { return boundary_links_; }

  /// One handoff route: the packets boundary link `boundary` hands to
  /// `to_domain`. An ordinary boundary link has one channel, to its
  /// destination node's domain. A link into a transit router has one per
  /// domain that drives a link out of the router, in increasing domain
  /// order; the one to its own domain is local (from_domain == to_domain):
  /// its packets never leave the thread, so they need no mailbox. Channels
  /// are numbered in link-creation order.
  struct Channel {
    std::size_t boundary;
    int from_domain;
    int to_domain;
    bool local() const { return from_domain == to_domain; }
  };
  const std::vector<Channel>& channels() const { return channels_; }
  /// True from adding a link into or out of a transit router until the
  /// next compute_routes(), which builds that link's channels.
  bool channels_stale() const { return channels_stale_; }

  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);

  /// The channel that carries a packet for `dst` out of boundary link `i`.
  /// A link into a transit router takes the channel of the domain that
  /// drives the router's next hop, from a read-only table compute_routes()
  /// derives from the router's routes; kNoChannel when the router has no
  /// route (the caller counts the packet unroutable).
  std::size_t channel_for(std::size_t i, NodeId dst) const {
    const BoundaryLink& b = boundary_links_[i];
    if (b.transit == nullptr) return b.first_channel;
    const std::vector<std::uint32_t>& rank =
        transit_ranks_[static_cast<std::size_t>(b.transit->id())];
    const auto d = static_cast<std::size_t>(dst);
    return d < rank.size() && rank[d] != kNoRoute ? b.first_channel + rank[d] : kNoChannel;
  }

  /// Hands a packet that left a boundary link to channel `c`'s destination
  /// domain: the packet waits in the channel's inbox, a ring the topology
  /// owns, and one `[this, c]` event at `deliver_at` in the destination
  /// domain's scheduler pops it and delivers it to the link's dst node, or,
  /// on a transit channel, forwards it through the transit router in the
  /// destination domain's lane. A channel's deliver_at never decreases and
  /// equal-time events run in schedule order, so each event pops exactly
  /// the packet it was scheduled for. The inbox lives as long as the
  /// topology — which every pending arrival already references through its
  /// dst node — so a runner driving the handoffs may be destroyed with
  /// arrivals still pending. Call from the thread that runs the destination
  /// domain (DomainRunner: that domain's own thread at the start of its next
  /// window, at wire exit for a local channel, or the caller's after a
  /// run's last window), with each channel's packets in FIFO order. The
  /// order of the calls for one destination decides the tie-break of its
  /// equal-time arrivals, so a deterministic runner makes them in a fixed
  /// order (DomainRunner: channel order).
  void hand_off(std::size_t c, Packet&& pkt, SimTime deliver_at);

  /// Minimum propagation delay across boundary links — the lookahead bound
  /// for conservative parallel execution. kTimeNever when the domains never
  /// exchange packets (no boundary links).
  SimTime min_boundary_delay() const;

  Host& add_host(std::string name, int domain = 0);
  Router& add_router(std::string name, int domain = 0);

  /// Adds a router with no domain of its own (a hostless core): each link
  /// out of it is driven by the domain of the node it feeds, and a packet
  /// on a link into it is routed through its table at wire exit and handed
  /// once, straight to the domain that drives its next hop, whose thread
  /// forwards it. Links into it need prop_delay > 0 (they may be boundary
  /// links), links between two transit routers are rejected, and its
  /// routes and channels come from compute_routes(). node_domain() of it is
  /// kTransitDomain.
  Router& add_transit_router(std::string name);
  static constexpr int kTransitDomain = -1;
  bool is_transit(NodeId id) const { return node_domain(id) == kTransitDomain; }

  /// The domain that drives a link from `from` to `to` (the one whose
  /// scheduler runs its events): `from`'s, or `to`'s when `from` is a
  /// transit router.
  int link_domain(const Node& from, const Node& to) const;

  /// Adds a unidirectional link from `from` to `to`. Returns the link. The
  /// link is driven by link_domain(from, to); a cross-domain link, or one
  /// into a transit router, must have prop_delay > 0 (throws
  /// std::invalid_argument otherwise — zero-delay boundaries would make the
  /// conservative lookahead vanish).
  Link& add_link(Node& from, Node& to, double bandwidth_bps, SimTime prop_delay,
                 const QueueFactory& make_queue);

  /// Adds a pair of symmetric unidirectional links between `a` and `b`.
  /// Returns {a->b, b->a}.
  std::pair<Link*, Link*> connect(Node& a, Node& b, double bandwidth_bps, SimTime prop_delay,
                                  const QueueFactory& make_queue);

  /// Fills every node's routing table with hop-count shortest paths (BFS).
  /// Ties are broken by link creation order, deterministically. Also builds
  /// the channels of links into transit routers, which need the routes.
  /// Call after the graph is complete; may be called again if links are
  /// added later, while no handoff is pending.
  void compute_routes();

  /// Pre-sizes every domain's scheduler pools and every link's in-flight
  /// ring so the steady state never grows them mid-run. Each domain is
  /// sized for its own share: the links it drives (a transit router's
  /// links out count in the domains they feed), `expected_flows` split by
  /// the hosts it owns, and one arrival per packet in flight on each
  /// channel into it — so a single-domain topology reserves
  /// 16 + 2 * links + 4 * expected_flows events. The estimate needs no
  /// floor for the wheel: Scheduler::reserve sizes its block pool for any
  /// spread of that many events over the buckets. Call once after the
  /// graph is complete.
  void reserve_runtime(std::size_t expected_flows);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  /// Link by creation order (matching link_count()). The invariant monitor
  /// iterates every link for packet-conservation checks.
  Link& link(std::size_t i) { return *links_.at(i); }
  const Link& link(std::size_t i) const { return *links_.at(i); }
  /// Domain 0's Simulation (the only one in single-domain topologies).
  Simulation& sim() { return sim_; }

 private:
  struct Edge {
    NodeId from;
    NodeId to;
    Link* link;
    int domain;  // the domain that drives the link
  };

  /// Handed-off packets of one channel awaiting their arrival event, and
  /// where they go. Written by the destination domain's thread only; on its
  /// own line so that neighbouring inboxes of other destinations share
  /// nothing.
  struct alignas(kCacheLineSize) Inbox {
    RingBuffer<Packet> packets;
    SimTime last_deliver_at = 0;  // FIFO precondition check
    Node* dst = nullptr;          // the boundary link's destination node
    // The destination domain, whose lane forwards the packet when dst is a
    // transit router; -1 when dst receives it.
    std::int32_t transit_lane = -1;
  };
  static_assert(sizeof(Inbox) == kCacheLineSize, "an inbox fills one line");

  static constexpr std::uint32_t kNoRoute = static_cast<std::uint32_t>(-1);

  /// Arrival event of channel `c`: delivers the inbox head.
  void arrive(std::size_t c);
  /// Appends boundary link `link` (driven by `from_domain`, feeding `dst`)
  /// with one channel per domain of [to_first, to_last).
  void add_boundary(Link& link, int from_domain, Node& dst, Router* transit,
                    const int* to_first, const int* to_last);
  /// Rebuilds the boundary links and channels from the edges, in creation
  /// order, with the transit tables channel_for reads.
  void build_channels();

  Simulation& sim_;
  std::vector<Simulation*> domain_sims_;
  std::vector<int> node_domains_;  // parallel to nodes_
  std::vector<BoundaryLink> boundary_links_;
  std::vector<Channel> channels_;
  std::vector<Inbox> inboxes_;  // parallel to channels_
  // Per transit router (by node id; empty for other nodes): for each
  // destination node, the rank of the next hop's domain among the domains
  // the router feeds, which is its channel's offset from a link's
  // first_channel (kNoRoute where the router has no route).
  std::vector<std::vector<std::uint32_t>> transit_ranks_;
  bool channels_stale_ = false;  // a transit link came after build_channels
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
};

}  // namespace pels
