// Topology: owns nodes and links, wires them together, and computes static
// hop-count shortest-path routes.
//
// Queue disciplines are supplied per-link through factories so that generic
// code (tests, scenario builders) can attach DropTail edges and a PELS/RED
// bottleneck without this module depending on concrete disciplines.
#pragma once

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

  /// A link whose endpoints live in different domains. `dst` is the
  /// receiving node; the link itself is owned (and its events executed) by
  /// the *source* node's domain.
  struct BoundaryLink {
    Link* link;
    int from_domain;
    int to_domain;
    NodeId dst;
  };
  const std::vector<BoundaryLink>& boundary_links() const { return boundary_links_; }

  /// Hands a packet that left boundary link `i` (index into
  /// boundary_links()) to the destination domain: the packet waits in the
  /// link's inbox, a ring the topology owns, and one `[this, i]` event at
  /// `deliver_at` in the destination domain's scheduler pops it and delivers
  /// it to the link's dst node. A link's deliver_at never decreases and
  /// equal-time events run in schedule order, so each event pops exactly
  /// the packet it was scheduled for. The inbox lives as long as the
  /// topology — which every pending arrival already references through its
  /// dst node — so a runner driving the handoffs may be destroyed with
  /// arrivals still pending. Call from the thread that runs the destination
  /// domain (DomainRunner: that domain's own thread at the start of its next
  /// window, or the caller's after a run's last window), with each link's
  /// packets in FIFO order. The order of the calls for one destination
  /// decides the tie-break of its equal-time arrivals, so a deterministic
  /// runner makes them in a fixed order (DomainRunner: link creation).
  void hand_off(std::size_t i, Packet&& pkt, SimTime deliver_at);

  /// Minimum propagation delay across boundary links — the lookahead bound
  /// for conservative parallel execution. kTimeNever when the domains never
  /// exchange packets (no boundary links).
  SimTime min_boundary_delay() const;

  Host& add_host(std::string name, int domain = 0);
  Router& add_router(std::string name, int domain = 0);

  /// Adds a unidirectional link from `from` to `to`. Returns the link. The
  /// link is driven by `from`'s domain; a cross-domain link must have
  /// prop_delay > 0 (throws std::invalid_argument otherwise — zero-delay
  /// boundaries would make the conservative lookahead vanish).
  Link& add_link(Node& from, Node& to, double bandwidth_bps, SimTime prop_delay,
                 const QueueFactory& make_queue);

  /// Adds a pair of symmetric unidirectional links between `a` and `b`.
  /// Returns {a->b, b->a}.
  std::pair<Link*, Link*> connect(Node& a, Node& b, double bandwidth_bps, SimTime prop_delay,
                                  const QueueFactory& make_queue);

  /// Fills every node's routing table with hop-count shortest paths (BFS).
  /// Ties are broken by link creation order, deterministically. Call after
  /// the graph is complete; may be called again if links are added later.
  void compute_routes();

  /// Pre-sizes every domain's scheduler pools and every link's in-flight
  /// ring so the steady state never grows them mid-run. Each domain is
  /// sized for its own share: the links it drives, `expected_flows` split
  /// by the hosts it owns, and one arrival per packet in flight on its
  /// inbound boundary links — so a hostless domain (a fat tree's core)
  /// reserves only for its links, and a single-domain topology reserves
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
  };

  /// Handed-off packets of one boundary link awaiting their arrival event.
  /// Written by the destination domain's thread only; on its own line so
  /// that neighbouring inboxes of other destinations share nothing.
  struct alignas(kCacheLineSize) Inbox {
    RingBuffer<Packet> packets;
    SimTime last_deliver_at = 0;  // FIFO precondition check
  };

  /// Arrival event of boundary link `i`: delivers the inbox head.
  void arrive(std::size_t i);

  Simulation& sim_;
  std::vector<Simulation*> domain_sims_;
  std::vector<int> node_domains_;  // parallel to nodes_
  std::vector<BoundaryLink> boundary_links_;
  std::vector<Inbox> inboxes_;  // parallel to boundary_links_
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
};

}  // namespace pels
