// Test helper: one congestion-controlled flow, i.e. a FlowTable holding a
// single slot of the given kind, with the table's per-slot apply_* calls as
// short methods so controller tests read like the control loop they drive.
#pragma once

#include "cc/flow_table.h"

namespace pels {

struct OneFlow {
  explicit OneFlow(CcKind kind, CcZooConfig zoo = {}, MkcConfig mkc = {})
      : table(mkc, GammaConfig{}, zoo), slot(table.add_flow(kind)) {}
  explicit OneFlow(MkcConfig mkc) : OneFlow(CcKind::kMkc, {}, mkc) {}

  double rate_bps() const { return table.rate_bps(slot); }
  void feedback(double p, SimTime now = 0) { table.apply_feedback(slot, p, now); }
  void silence() { table.apply_silence(slot); }
  void rtt(SimTime rtt) { table.apply_rtt(slot, rtt); }
  void loss(double p, SimTime now = 0) { table.apply_loss_interval(slot, p, now); }
  void mark(double f, SimTime now = 0) { table.apply_mark_fraction(slot, f, now); }
  void tick(SimTime now) { table.apply_control_tick(slot, now); }

  FlowTable table;
  FlowSlot slot;
};

}  // namespace pels
