#include "net/router.h"

#include "net/link.h"

namespace pels {

void Router::receive(Packet&& pkt) {
  Link* link = routing_.route_to(pkt.dst);
  if (link == nullptr) {
    ++unroutable_;
    return;
  }
  ++forwarded_;
  link->send(std::move(pkt));
}

}  // namespace pels
