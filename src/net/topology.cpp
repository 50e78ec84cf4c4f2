#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <stdexcept>

namespace pels {

int Topology::add_domain(Simulation& sim) {
  domain_sims_.push_back(&sim);
  return static_cast<int>(domain_sims_.size()) - 1;
}

Host& Topology::add_host(std::string name, int domain) {
  if (domain < 0 || static_cast<std::size_t>(domain) >= domain_sims_.size()) {
    throw std::invalid_argument("add_host: unknown domain " + std::to_string(domain));
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(id, std::move(name));
  Host& ref = *host;
  nodes_.push_back(std::move(host));
  node_domains_.push_back(domain);
  return ref;
}

Router& Topology::add_router(std::string name, int domain) {
  if (domain < 0 || static_cast<std::size_t>(domain) >= domain_sims_.size()) {
    throw std::invalid_argument("add_router: unknown domain " + std::to_string(domain));
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  auto router = std::make_unique<Router>(id, std::move(name));
  Router& ref = *router;
  nodes_.push_back(std::move(router));
  node_domains_.push_back(domain);
  return ref;
}

Link& Topology::add_link(Node& from, Node& to, double bandwidth_bps, SimTime prop_delay,
                         const QueueFactory& make_queue) {
  const int from_domain = node_domain(from.id());
  const int to_domain = node_domain(to.id());
  if (from_domain != to_domain && prop_delay <= 0) {
    throw std::invalid_argument(
        "add_link: a cross-domain link needs prop_delay > 0 (it is the "
        "conservative lookahead between '" +
        from.name() + "' and '" + to.name() + "')");
  }
  // The link's events run in the source node's domain: serialization and
  // queueing are source-side physics; only the arrival crosses over.
  Simulation& owner = *domain_sims_[static_cast<std::size_t>(from_domain)];
  auto link = std::make_unique<Link>(owner, to, bandwidth_bps, prop_delay,
                                     make_queue(bandwidth_bps));
  Link& ref = *link;
  links_.push_back(std::move(link));
  edges_.push_back(Edge{from.id(), to.id(), &ref});
  if (from_domain != to_domain) {
    boundary_links_.push_back(BoundaryLink{&ref, from_domain, to_domain, to.id()});
    inboxes_.emplace_back();
  }
  return ref;
}

void Topology::hand_off(std::size_t i, Packet&& pkt, SimTime deliver_at) {
  Inbox& inbox = inboxes_[i];
  assert(deliver_at >= inbox.last_deliver_at &&
         "boundary-link handoffs must arrive in FIFO order");
  inbox.last_deliver_at = deliver_at;
  inbox.packets.push_back(std::move(pkt));
  domain_sims_[static_cast<std::size_t>(boundary_links_[i].to_domain)]->at(
      deliver_at, [this, i] { arrive(i); });
}

void Topology::arrive(std::size_t i) {
  // The head stays in its slot until a later hand_off refills it, so the
  // destination takes it straight from the inbox.
  RingBuffer<Packet>& inbox = inboxes_[i].packets;
  Packet& pkt = inbox.front();
  inbox.drop_front();
  nodes_[static_cast<std::size_t>(boundary_links_[i].dst)]->receive(std::move(pkt));
}

SimTime Topology::min_boundary_delay() const {
  SimTime min_delay = kTimeNever;
  for (const BoundaryLink& b : boundary_links_) {
    min_delay = std::min(min_delay, b.link->prop_delay());
  }
  return min_delay;
}

std::pair<Link*, Link*> Topology::connect(Node& a, Node& b, double bandwidth_bps,
                                          SimTime prop_delay, const QueueFactory& make_queue) {
  Link& ab = add_link(a, b, bandwidth_bps, prop_delay, make_queue);
  Link& ba = add_link(b, a, bandwidth_bps, prop_delay, make_queue);
  return {&ab, &ba};
}

void Topology::reserve_runtime(std::size_t expected_flows) {
  // Bandwidth-delay product in packets, assuming ~1000-byte packets: the
  // deepest a link's in-flight ring can get in steady state.
  const auto in_flight = [](const Link& link) {
    const double bdp_packets =
        link.bandwidth_bps() * (static_cast<double>(link.prop_delay()) / kSecond) / 8000.0;
    return static_cast<std::size_t>(bdp_packets) + 2;
  };

  // Each domain's scheduler is sized for the work that lands on it: one
  // coalesced pipeline event per link it drives, one pacing/feedback timer
  // pair per flow its hosts source, one arrival event per packet in flight
  // on its inbound boundary links, plus slack for samplers and fault
  // injectors. The generous constants cost a few KB once, and warm-up then
  // never grows the pools mid-run — heap, slot pool, run buffer, AND the
  // wheel's block pool (the Scheduler::Stats *_capacity probes let benches
  // assert zero growth, see bench/many_flows.cpp).
  //
  // A domain's flows are expected_flows split by the hosts it owns; the
  // 4 events per flow leave room for sources that do not spread evenly
  // (gen_mixed_traffic draws them at random). A single-domain topology
  // reserves 16 + 2 * links + 4 * expected_flows, as it always has.
  const std::size_t domains = domain_sims_.size();
  std::vector<std::size_t> links(domains, 0);
  std::vector<std::size_t> hosts(domains, 0);
  std::vector<std::size_t> arrivals(domains, 0);
  std::size_t total_hosts = 0;
  for (const Edge& e : edges_) ++links[static_cast<std::size_t>(node_domain(e.from))];
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (dynamic_cast<const Host*>(nodes_[n].get()) == nullptr) continue;
    ++hosts[static_cast<std::size_t>(node_domains_[n])];
    ++total_hosts;
  }
  for (const BoundaryLink& b : boundary_links_) {
    arrivals[static_cast<std::size_t>(b.to_domain)] += in_flight(*b.link);
  }
  for (std::size_t d = 0; d < domains; ++d) {
    const std::size_t flows =
        total_hosts == 0 ? expected_flows
                         : (expected_flows * hosts[d] + total_hosts - 1) / total_hosts;
    const std::size_t events = 16 + 2 * links[d] + 4 * flows + arrivals[d];
    domain_sims_[d]->scheduler().reserve(events);
  }
  for (auto& link : links_) link->reserve_in_flight(in_flight(*link));
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  // Adjacency: outgoing edges per node, in creation order (deterministic).
  std::vector<std::vector<const Edge*>> out(n);
  for (const Edge& e : edges_) out[static_cast<std::size_t>(e.from)].push_back(&e);

  // One BFS per destination on the reversed graph would be asymptotically
  // better, but topologies here are tiny; BFS per source is clearer.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::vector<Link*> first_hop(n, nullptr);
    std::deque<NodeId> frontier;
    dist[src] = 0;
    frontier.push_back(static_cast<NodeId>(src));
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const Edge* e : out[static_cast<std::size_t>(u)]) {
        const auto v = static_cast<std::size_t>(e->to);
        if (dist[v] != std::numeric_limits<int>::max()) continue;
        dist[v] = dist[static_cast<std::size_t>(u)] + 1;
        // The first hop toward v is the first hop toward u, unless u is the
        // source itself, in which case it is this edge.
        first_hop[v] = (u == static_cast<NodeId>(src)) ? e->link
                                                       : first_hop[static_cast<std::size_t>(u)];
        frontier.push_back(e->to);
      }
    }
    Node& s = *nodes_[src];
    RoutingTable* table = nullptr;
    if (auto* h = dynamic_cast<Host*>(&s)) table = &h->routing();
    if (auto* r = dynamic_cast<Router*>(&s)) table = &r->routing();
    assert(table != nullptr && "unknown node kind");
    // first_hop[src] stays nullptr: a node has no route to itself.
    table->assign(std::move(first_hop));
  }
}

}  // namespace pels
