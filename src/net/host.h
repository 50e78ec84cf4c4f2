// Host: an end system running protocol agents.
//
// A Host dispatches arriving packets to the Agent registered for the packet's
// flow id, and forwards outgoing packets along its routing table (hosts are
// usually single-homed: one uplink used for every destination). FlowIds are
// dense, so the agent table is a flat vector indexed by flow.
#pragma once

#include <vector>

#include "net/node.h"
#include "net/routing.h"

namespace pels {

/// Endpoint protocol logic (PELS source/sink, TCP source/sink, ...).
class Agent {
 public:
  virtual ~Agent() = default;

  /// Invoked when a packet addressed to this agent's flow arrives at the
  /// host where the agent is registered.
  virtual void on_packet(const Packet& pkt) = 0;
};

class Host : public Node {
 public:
  Host(NodeId id, std::string name) : Node(id, std::move(name)) {}

  /// Registers `agent` to receive packets of `flow` (>= 0; throws
  /// std::invalid_argument otherwise). One agent per flow per host;
  /// re-registering replaces. Agents are not owned.
  void register_agent(FlowId flow, Agent* agent);
  void unregister_agent(FlowId flow);

  /// Fallback agent for flows with no per-flow registration (nullptr to
  /// clear). Population-scale drivers install one shared table-backed sink
  /// here instead of an entry per flow — the per-flow table stays empty and
  /// per-flow receiver state lives in dense columns (see cc/sink_table.h).
  /// Not owned.
  void set_default_agent(Agent* agent) { default_agent_ = agent; }
  Agent* default_agent() const { return default_agent_; }

  /// Sends a packet toward pkt.dst via the routing table.
  /// Returns false if no route exists or the first queue dropped the packet.
  bool send(Packet&& pkt);

  RoutingTable& routing() { return routing_; }

  /// Hands the packet to its flow's agent; a flow with none (an id past the
  /// table, kInvalidFlow, or unregistered) goes to the default agent.
  void receive(Packet&& pkt) override;

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t packets_undeliverable() const { return undeliverable_; }

 private:
  RoutingTable routing_;
  std::vector<Agent*> agents_;  // indexed by FlowId; nullptr = none
  Agent* default_agent_ = nullptr;
  std::uint64_t received_ = 0;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace pels
