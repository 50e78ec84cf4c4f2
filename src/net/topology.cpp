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

Router& Topology::add_transit_router(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto router = std::make_unique<Router>(id, std::move(name));
  router->set_lanes(domain_sims_.size());
  Router& ref = *router;
  nodes_.push_back(std::move(router));
  node_domains_.push_back(kTransitDomain);
  return ref;
}

int Topology::link_domain(const Node& from, const Node& to) const {
  const int domain = node_domain(from.id());
  if (domain != kTransitDomain) return domain;
  if (is_transit(to.id())) {
    throw std::invalid_argument("add_link: no domain drives a link between two transit "
                                "routers ('" + from.name() + "' -> '" + to.name() + "')");
  }
  return node_domain(to.id());
}

Link& Topology::add_link(Node& from, Node& to, double bandwidth_bps, SimTime prop_delay,
                         const QueueFactory& make_queue) {
  const int domain = link_domain(from, to);
  const bool into_transit = is_transit(to.id());
  // A link into a transit router may hand packets to any domain.
  if ((into_transit || domain != node_domain(to.id())) && prop_delay <= 0) {
    throw std::invalid_argument(
        "add_link: a cross-domain link needs prop_delay > 0 (it is the "
        "conservative lookahead between '" +
        from.name() + "' and '" + to.name() + "')");
  }
  // The link's events run in the domain that drives it: serialization and
  // queueing are source-side physics (or, out of a transit router, the
  // physics of the domain it feeds); only the arrival crosses over.
  Simulation& owner = *domain_sims_[static_cast<std::size_t>(domain)];
  auto link = std::make_unique<Link>(owner, to, bandwidth_bps, prop_delay,
                                     make_queue(bandwidth_bps));
  Link& ref = *link;
  links_.push_back(std::move(link));
  edges_.push_back(Edge{from.id(), to.id(), &ref, domain});
  if (into_transit || is_transit(from.id())) {
    channels_stale_ = true;  // compute_routes builds the channels
  } else if (domain != node_domain(to.id())) {
    const int* to_domain = &node_domains_[static_cast<std::size_t>(to.id())];
    add_boundary(ref, domain, to, nullptr, to_domain, to_domain + 1);
  }
  return ref;
}

void Topology::add_boundary(Link& link, int from_domain, Node& dst, Router* transit,
                            const int* to_first, const int* to_last) {
  const std::size_t b = boundary_links_.size();
  boundary_links_.push_back(BoundaryLink{&link, from_domain, transit, channels_.size()});
  for (const int* to = to_first; to != to_last; ++to) {
    channels_.push_back(Channel{b, from_domain, *to});
    Inbox& inbox = inboxes_.emplace_back();
    inbox.dst = &dst;
    if (transit != nullptr) inbox.transit_lane = *to;
  }
}

void Topology::build_channels() {
  for (const Inbox& inbox : inboxes_) {
    if (!inbox.packets.empty()) {
      throw std::logic_error("Topology::compute_routes: a handoff is still pending");
    }
  }
  // The domains that drive a link out of each transit router, ascending.
  std::vector<std::vector<int>> out_domains(nodes_.size());
  for (const Edge& e : edges_) {
    if (is_transit(e.from)) out_domains[static_cast<std::size_t>(e.from)].push_back(e.domain);
  }
  for (std::vector<int>& d : out_domains) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  // The domains a link hands packets to: its destination's, or, into a
  // transit router, every domain the router feeds — none (a local link)
  // while they all are the link's own.
  const auto to_domains = [&](const Edge& e) -> std::pair<const int*, const int*> {
    if (!is_transit(e.to)) {
      const int* d = &node_domains_[static_cast<std::size_t>(e.to)];
      return {d, *d == e.domain ? d : d + 1};
    }
    const std::vector<int>& to = out_domains[static_cast<std::size_t>(e.to)];
    const bool local = std::all_of(to.begin(), to.end(), [&e](int d) { return d == e.domain; });
    return {to.data(), local ? to.data() : to.data() + to.size()};
  };
  std::size_t links = 0;
  std::size_t channels = 0;
  for (const Edge& e : edges_) {
    const auto [first, last] = to_domains(e);
    links += first != last ? 1 : 0;
    channels += static_cast<std::size_t>(last - first);
  }
  boundary_links_.clear();
  channels_.clear();
  inboxes_.clear();
  boundary_links_.reserve(links);
  channels_.reserve(channels);
  inboxes_.reserve(channels);  // one aligned allocation, not one per growth step
  for (const Edge& e : edges_) {
    const auto [first, last] = to_domains(e);
    if (first == last) continue;
    Node& dst = *nodes_[static_cast<std::size_t>(e.to)];
    add_boundary(*e.link, e.domain, dst,
                 is_transit(e.to) ? static_cast<Router*>(&dst) : nullptr, first, last);
  }

  // channel_for's tables: per transit router, the rank among its domains of
  // the domain that drives its next hop toward each destination (a link
  // runs in the domain whose Simulation drives it).
  transit_ranks_.assign(nodes_.size(), {});
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    const std::vector<int>& to = out_domains[t];
    if (to.empty()) continue;
    const auto& routing = static_cast<const Router&>(*nodes_[t]).routing();
    std::vector<std::uint32_t>& rank = transit_ranks_[t];
    rank.assign(nodes_.size(), kNoRoute);
    for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
      const Link* next = routing.route_to(static_cast<NodeId>(dst));
      if (next == nullptr) continue;
      const auto sim = std::find(domain_sims_.begin(), domain_sims_.end(), &next->sim());
      const auto domain = static_cast<int>(sim - domain_sims_.begin());
      rank[dst] = static_cast<std::uint32_t>(std::lower_bound(to.begin(), to.end(), domain) -
                                             to.begin());
    }
  }
  channels_stale_ = false;
}

void Topology::hand_off(std::size_t c, Packet&& pkt, SimTime deliver_at) {
  Inbox& inbox = inboxes_[c];
  assert(deliver_at >= inbox.last_deliver_at &&
         "boundary-link handoffs must arrive in FIFO order");
  inbox.last_deliver_at = deliver_at;
  inbox.packets.push_back(std::move(pkt));
  domain_sims_[static_cast<std::size_t>(channels_[c].to_domain)]->at(
      deliver_at, [this, c] { arrive(c); });
}

void Topology::arrive(std::size_t c) {
  // The head stays in its slot until a later hand_off refills it, so the
  // destination takes it straight from the inbox.
  Inbox& inbox = inboxes_[c];
  Packet& pkt = inbox.packets.front();
  inbox.packets.drop_front();
  if (inbox.transit_lane >= 0) {
    static_cast<Router*>(inbox.dst)->forward_in(static_cast<std::size_t>(inbox.transit_lane),
                                                std::move(pkt));
  } else {
    inbox.dst->receive(std::move(pkt));
  }
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
  // on each channel into it, plus slack for samplers and fault injectors.
  // The generous constants cost a few KB once, and warm-up then never grows
  // the pools mid-run — heap, slot pool, run buffer, AND the wheel's block
  // pool (the Scheduler::Stats *_capacity probes let benches assert zero
  // growth, see bench/many_flows.cpp).
  //
  // A domain's flows are expected_flows split by the hosts it owns; the
  // 4 events per flow leave room for sources that do not spread evenly
  // (gen_mixed_traffic draws them at random). A single-domain topology
  // reserves 16 + 2 * links + 4 * expected_flows, as it always has.
  struct Share {
    std::size_t links = 0;
    std::size_t hosts = 0;
    std::size_t arrivals = 0;
  };
  std::vector<Share> shares(domain_sims_.size());
  std::size_t total_hosts = 0;
  for (const Edge& e : edges_) ++shares[static_cast<std::size_t>(e.domain)].links;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (dynamic_cast<const Host*>(nodes_[n].get()) == nullptr) continue;
    ++shares[static_cast<std::size_t>(node_domains_[n])].hosts;
    ++total_hosts;
  }
  for (const Channel& c : channels_) {
    shares[static_cast<std::size_t>(c.to_domain)].arrivals +=
        in_flight(*boundary_links_[c.boundary].link);
  }
  for (std::size_t d = 0; d < shares.size(); ++d) {
    const Share& s = shares[d];
    const std::size_t flows =
        total_hosts == 0 ? expected_flows
                         : (expected_flows * s.hosts + total_hosts - 1) / total_hosts;
    domain_sims_[d]->scheduler().reserve(16 + 2 * s.links + 4 * flows + s.arrivals);
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
  if (channels_stale_) build_channels();
}

}  // namespace pels
