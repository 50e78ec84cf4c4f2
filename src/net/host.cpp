#include "net/host.h"

#include <stdexcept>
#include <string>

#include "net/link.h"

namespace pels {

void Host::register_agent(FlowId flow, Agent* agent) {
  if (flow < 0) {
    throw std::invalid_argument("Host::register_agent: flow id " + std::to_string(flow) +
                                " is negative");
  }
  const auto i = static_cast<std::size_t>(flow);
  if (i >= agents_.size()) agents_.resize(i + 1, nullptr);
  agents_[i] = agent;
}

void Host::unregister_agent(FlowId flow) {
  const auto i = static_cast<std::size_t>(flow);
  if (i < agents_.size()) agents_[i] = nullptr;
}

bool Host::send(Packet&& pkt) {
  Link* link = routing_.route_to(pkt.dst);
  if (link == nullptr) {
    ++undeliverable_;
    return false;
  }
  return link->send(std::move(pkt));
}

void Host::receive(Packet&& pkt) {
  ++received_;
  // Per-flow registrations win over the default agent. A negative flow id
  // converts to a huge index and misses, like any id past the table.
  const auto i = static_cast<std::size_t>(pkt.flow);
  Agent* agent = i < agents_.size() ? agents_[i] : nullptr;
  if (agent == nullptr) agent = default_agent_;
  if (agent == nullptr) {
    ++undeliverable_;  // no agent for this flow: silently discard, as an OS would
    return;
  }
  agent->on_packet(pkt);
}

}  // namespace pels
