// Base of the controllers whose state lives in a FlowTable slot.
//
// MKC and the zoo (CUBIC, DCQCN, Swift, SCReAM-lite) hold no control state of
// their own: every scalar their kernels update is a FlowTable column at one
// slot, so a standalone controller and the population driver's control tick
// run the same FlowTable::apply_* calls on the same storage. A controller built from (table, slot)
// borrows them — the table must outlive it and the slot stay allocated; one
// built from a config alone owns a one-slot table.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/controller.h"

namespace pels {

class FlowTable;
using FlowSlot = std::uint32_t;
inline constexpr FlowSlot kInvalidFlowSlot = 0xffffffffu;

/// Controller kind of a table slot. kMkc is the default and the only kind
/// that exists before a table's zoo columns are enabled.
enum class CcKind : std::uint8_t {
  kMkc = 0,
  kCubic = 1,
  kDcqcn = 2,
  kSwift = 3,
  kScream = 4,
};

const char* cc_kind_name(CcKind kind);

class TableController : public CongestionController {
 public:
  ~TableController() override;

  double rate_bps() const override;

  FlowTable& table() const { return *table_; }
  FlowSlot slot() const { return slot_; }

 protected:
  /// Borrows `slot` of `table`, which must be a live `kind` slot.
  TableController(FlowTable& table, FlowSlot slot, CcKind kind);
  /// Owns `table` and allocates one `kind` slot in it.
  TableController(std::unique_ptr<FlowTable> table, CcKind kind);

  FlowTable* table_;
  FlowSlot slot_;

 private:
  std::unique_ptr<FlowTable> owned_;  // set iff built from a config alone
};

}  // namespace pels
