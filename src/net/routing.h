// Static routing table: destination node -> outgoing link.
//
// Tables are filled by Topology::compute_routes() (hop-count shortest paths).
// NodeIds are dense, so the table is a flat vector indexed by destination:
// forwarding a packet is one bounds check and one load.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace pels {

class Link;

class RoutingTable {
 public:
  /// Replaces every route: `first_hop[dst]` is the next-hop link toward
  /// node `dst`, nullptr where there is none.
  void assign(std::vector<Link*> first_hop) { routes_ = std::move(first_hop); }

  /// Sets the next-hop link for packets destined to `dst` (>= 0).
  void set_route(NodeId dst, Link* link) {
    assert(dst >= 0 && "routes are keyed by valid node ids");
    const auto i = static_cast<std::size_t>(dst);
    if (i >= routes_.size()) routes_.resize(i + 1, nullptr);
    routes_[i] = link;
  }

  /// Next-hop link for `dst`, or nullptr if unknown. A negative id converts
  /// to a huge index, so kInvalidNode misses like any id past the table.
  Link* route_to(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    return i < routes_.size() ? routes_[i] : nullptr;
  }

 private:
  std::vector<Link*> routes_;
};

}  // namespace pels
