// Node base class: anything a Link can deliver packets to.
//
// Concrete nodes are Host (end system running agents) and Router (forwards
// according to a routing table). Nodes are owned by a Topology and addressed
// by dense NodeIds.
#pragma once

#include <string>

#include "net/packet.h"
#include "util/cache_line.h"

namespace pels {

class Link;

/// On its own cache line, like Link: neighbouring nodes may belong to
/// domains that run on different threads.
class alignas(kCacheLineSize) Node : public CacheLineAllocated {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Called by a Link when a packet arrives at this node. The node may move
  /// from `pkt`; the caller does not read it afterwards.
  virtual void receive(Packet&& pkt) = 0;

 private:
  NodeId id_;
  std::string name_;
};

}  // namespace pels
