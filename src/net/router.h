// Router: forwards packets by destination via its routing table.
//
// All queueing/AQM behaviour lives in the queue disciplines attached to the
// router's outgoing links; the router itself only classifies by destination.
#pragma once

#include "net/node.h"
#include "net/routing.h"

namespace pels {

class Router : public Node {
 public:
  Router(NodeId id, std::string name) : Node(id, std::move(name)) {}

  RoutingTable& routing() { return routing_; }

  void receive(Packet&& pkt) override;

  std::uint64_t packets_forwarded() const { return forwarded_; }
  std::uint64_t packets_unroutable() const { return unroutable_; }

 private:
  RoutingTable routing_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace pels
