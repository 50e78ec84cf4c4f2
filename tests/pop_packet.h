// Test helper: QueueDisc::dequeue as a value, so assertions can read the
// served packet inline (`EXPECT_EQ(pop_packet(q)->seq, 1u)`) and check
// emptiness with has_value().
#pragma once

#include <optional>

#include "net/queue_disc.h"

namespace pels {

inline std::optional<Packet> pop_packet(QueueDisc& q) {
  Packet pkt;
  if (!q.dequeue(pkt)) return std::nullopt;
  return pkt;
}

}  // namespace pels
