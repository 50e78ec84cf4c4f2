#include "net/router.h"

#include "net/link.h"

namespace pels {

namespace {

void forward(const RoutingTable& routing, Packet&& pkt, std::uint64_t& forwarded,
             std::uint64_t& unroutable) {
  Link* link = routing.route_to(pkt.dst);
  if (link == nullptr) {
    ++unroutable;
    return;
  }
  ++forwarded;
  link->send(std::move(pkt));
}

}  // namespace

void Router::receive(Packet&& pkt) { forward(routing_, std::move(pkt), forwarded_, unroutable_); }

void Router::forward_in(std::size_t lane, Packet&& pkt) {
  forward(routing_, std::move(pkt), lanes_[lane].forwarded, lanes_[lane].unroutable);
}

std::uint64_t Router::packets_forwarded() const {
  std::uint64_t total = forwarded_;
  for (const Lane& l : lanes_) total += l.forwarded;
  return total;
}

std::uint64_t Router::packets_unroutable() const {
  std::uint64_t total = unroutable_;
  for (const Lane& l : lanes_) total += l.unroutable;
  return total;
}

}  // namespace pels
