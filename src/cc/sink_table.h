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
// so concurrent workers always write distinct cells — the
// single-writer-per-cell discipline needs no locks. partition() goes one
// step further and gives each domain its own cache lines: four 16-byte
// cells share a line, and in flow-id order the flows delivered by
// different pods interleave, so their threads would otherwise keep
// stealing the line from each other. A single-domain table keeps the flat
// id-ordered column (resize()). Aggregates (per-class totals, delivered
// sums) are computed by scanning at barrier points (control output, end of
// run), never accumulated at delivery time, which would race.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/host.h"
#include "util/cache_line.h"

namespace pels {

class SinkTable {
 public:
  /// Sizes the table for flow ids [0, flows), one cell per flow in id
  /// order. Existing counters persist; new cells start at zero. Not for a
  /// partitioned table.
  void resize(std::size_t flows) {
    assert(index_.empty() && "a partitioned table keeps its layout");
    cells_.resize(flows);
    flows_ = flows;
  }

  /// Sizes the table for flow ids [0, domain_of.size()), all counters at
  /// zero, with the cells grouped by the domain that delivers each flow
  /// (domain_of[flow] < domains): each domain's cells form one block that
  /// starts on its own cache line, so two domains' threads never write one
  /// line. `domain_of` becomes the 4-byte flow -> cell index; the padding
  /// costs at most 3 cells per domain, plus 3 to align the first block.
  void partition(std::vector<std::uint32_t> domain_of, std::size_t domains) {
    constexpr std::size_t kPerLine = kCacheLineSize / sizeof(Cell);
    std::vector<std::size_t> start(domains + 1, 0);
    for (const std::uint32_t d : domain_of) ++start[d + 1];
    for (std::size_t d = 0; d < domains; ++d) {
      start[d + 1] = start[d] + (start[d + 1] + kPerLine - 1) / kPerLine * kPerLine;
    }
    cells_.assign(start[domains] + kPerLine - 1, Cell{});
    const auto misalign = reinterpret_cast<std::uintptr_t>(cells_.data()) % kCacheLineSize;
    const std::size_t base = (kCacheLineSize - misalign) % kCacheLineSize / sizeof(Cell);
    for (std::uint32_t& cell : domain_of) {
      cell = static_cast<std::uint32_t>(base + start[cell]++);
    }
    flows_ = domain_of.size();
    index_ = std::move(domain_of);
  }

  std::size_t size() const { return flows_; }

  /// Records one delivered packet for `flow`. Hot path: two increments in
  /// one 16-byte cell, no locks (see header contract).
  void record(std::size_t flow, std::int32_t packet_bytes) {
    Cell& c = cells_[cell(flow)];
    ++c.packets;
    c.bytes += static_cast<std::uint64_t>(packet_bytes);
  }

  std::uint64_t packets(std::size_t flow) const { return cells_[cell(flow)].packets; }
  std::uint64_t bytes(std::size_t flow) const { return cells_[cell(flow)].bytes; }

  /// The cache line `flow`'s cell lies on (tests and layout diagnostics).
  std::uintptr_t cache_line(std::size_t flow) const {
    return reinterpret_cast<std::uintptr_t>(&cells_[cell(flow)]) / kCacheLineSize;
  }

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

  /// Heap footprint of the cells and the index (capacity, not size): the
  /// bytes/flow budget reported by bench/many_flows counts this.
  std::size_t memory_bytes() const {
    return cells_.capacity() * sizeof(Cell) + index_.capacity() * sizeof(std::uint32_t);
  }

 private:
  // 16-byte aligned, so whole-cell offsets can reach a cache-line boundary.
  struct alignas(16) Cell {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  static_assert(sizeof(Cell) == 16, "a delivery must touch one 16 B cell");

  std::size_t cell(std::size_t flow) const { return index_.empty() ? flow : index_[flow]; }

  std::vector<Cell> cells_;
  std::vector<std::uint32_t> index_;  // flow -> cell; empty unless partitioned
  std::size_t flows_ = 0;
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
