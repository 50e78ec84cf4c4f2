// Dense per-flow receiver accounting for population-scale drivers
// (ROADMAP "Million-flow scale-out").
//
// At N=10^6 flows, one CountingSink object per flow (registered in each
// host's flow->agent map) is the receiver-side memory wall: ~50+ bytes of
// map node + agent object per flow, scattered across the heap. The
// SinkTable replaces both with one dense column of 16-byte {packets, bytes}
// cells indexed by the driver's flow id, and a single shared Agent adapter
// installed as every host's default agent — per-flow receive state costs 16
// bytes, flat, and a delivery touches one cache line.
//
// Thread-safety contract (sharded drivers): record() writes only the cell
// of its packet's flow. Under DomainRunner each flow's packets are
// delivered by exactly one domain worker (the destination host's domain),
// so concurrent workers always write distinct vector elements — the
// single-writer-per-cell discipline needs no locks. Aggregates (per-class
// totals, delivered sums) are computed by scanning at barrier points
// (control output, end of run), never accumulated at delivery time, which
// would race.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/host.h"

namespace pels {

class SinkTable {
 public:
  /// Sizes the table for flow ids [0, flows). Existing counters persist;
  /// new cells start at zero.
  void resize(std::size_t flows) { cells_.resize(flows); }

  std::size_t size() const { return cells_.size(); }

  /// Records one delivered packet for `flow`. Hot path: two increments in
  /// one 16-byte cell, no branches, no locks (see header contract).
  void record(std::size_t flow, std::int32_t packet_bytes) {
    Cell& c = cells_[flow];
    ++c.packets;
    c.bytes += static_cast<std::uint64_t>(packet_bytes);
  }

  std::uint64_t packets(std::size_t flow) const { return cells_[flow].packets; }
  std::uint64_t bytes(std::size_t flow) const { return cells_[flow].bytes; }

  struct Totals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  /// Sums delivered packets/bytes over every flow. Linear scan; call at
  /// barrier points, not per delivery.
  Totals totals() const {
    Totals t;
    for (const Cell& c : cells_) {
      t.packets += c.packets;
      t.bytes += c.bytes;
    }
    return t;
  }

  /// Heap footprint of the cells (capacity, not size): the bytes/flow
  /// budget reported by bench/many_flows counts this.
  std::size_t memory_bytes() const { return cells_.capacity() * sizeof(Cell); }

 private:
  struct Cell {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  static_assert(sizeof(Cell) == 16, "a delivery must touch one 16 B cell");

  std::vector<Cell> cells_;
};

/// The one Agent shared by every receiving host: routes a delivered
/// packet's accounting into the SinkTable cell of pkt.flow. Install with
/// Host::set_default_agent — no per-flow registration, no per-host object.
class SinkTableAgent final : public Agent {
 public:
  explicit SinkTableAgent(SinkTable& table) : table_(&table) {}

  void on_packet(const Packet& pkt) override {
    table_->record(static_cast<std::size_t>(pkt.flow), pkt.size_bytes);
  }

 private:
  SinkTable* table_;
};

}  // namespace pels
