// Router: forwards packets by destination via its routing table.
//
// All queueing/AQM behaviour lives in the queue disciplines attached to the
// router's outgoing links; the router itself only classifies by destination.
#pragma once

#include <cstdint>
#include <vector>

#include "net/node.h"
#include "net/routing.h"
#include "util/cache_line.h"

namespace pels {

class Router : public Node {
 public:
  Router(NodeId id, std::string name) : Node(id, std::move(name)) {}

  RoutingTable& routing() { return routing_; }
  const RoutingTable& routing() const { return routing_; }

  void receive(Packet&& pkt) override;

  /// Transit forwarding (Topology::add_transit_router): a router without a
  /// domain of its own is run by the domains its packets leave into, from
  /// several threads at once, so each domain counts in its own lane.
  /// set_lanes(n) gives it one lane per domain; forward_in(d, pkt) forwards
  /// a packet on domain d's thread, count_unroutable_in(d) counts one that
  /// had no route when it left a link driven by domain d.
  void set_lanes(std::size_t domains) { lanes_.assign(domains, Lane{}); }
  void forward_in(std::size_t lane, Packet&& pkt);
  void count_unroutable_in(std::size_t lane) { ++lanes_[lane].unroutable; }

  /// Every packet this router forwarded or found no route for, over
  /// receive() and every lane. Read between DomainRunner windows.
  std::uint64_t packets_forwarded() const;
  std::uint64_t packets_unroutable() const;

 private:
  struct alignas(kCacheLineSize) Lane {
    std::uint64_t forwarded = 0;
    std::uint64_t unroutable = 0;
  };

  RoutingTable routing_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
  std::vector<Lane> lanes_;  // empty unless transit
};

}  // namespace pels
