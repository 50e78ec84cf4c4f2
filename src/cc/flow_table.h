// Structure-of-arrays flow state for population-scale control (ROADMAP
// "Million-flow scale-out").
//
// At N=100k concurrent PELS sources, per-flow controller objects scatter the
// MKC/gamma/pacing scalars across the heap and every control tick pays N
// virtual dispatches plus N cache misses. The FlowTable keeps those hot
// scalars in contiguous parallel columns keyed by a dense FlowSlot.
//
// One storage, one control path: the table is the only home of MKC/zoo
// controller state and of PelsSource's gamma and pacing EWMA, and the
// single-flow operations (apply_feedback / apply_silence / apply_gamma /
// apply_loss_interval / apply_mark_fraction / apply_control_tick /
// apply_rtt) are the only way to update it. The controllers
// (cc/table_controller.h) are views on one slot — a standalone one owns a
// one-slot table — and the population driver (exp/fabric.h) calls apply_* on
// its own slots from its control tick. Each call runs an inline kernel
// (mkc_feedback_step, cubic_tick_step, dcqcn_mark_step, ...) on that slot's
// columns alone — verified against the controller views by
// tests/flow_table_test.cpp and tests/cc_zoo_test.cpp.
//
// Controller zoo: each slot carries a CcKind; the apply calls dispatch per
// kind. The zoo columns (CUBIC window state, DCQCN rate machine, RTT
// memories) are allocated lazily on the first non-MKC flow, so homogeneous
// MKC populations — the million-flow bench — pay not a byte for them. Each
// zoo scalar column is shared across kinds (one flow has exactly one kind):
// zoo_a is CUBIC's W_max or DCQCN's target rate, zoo_b CUBIC's K or DCQCN's
// alpha, zoo_t CUBIC's epoch start or Swift's previous-tick RTT, zoo_t2
// Swift's/SCReAM's min RTT.
//
// Slot lifecycle: add_flow() reuses freed slots LIFO (like the scheduler's
// callback pool); remove_flow() returns the slot. Columns never shrink, so a
// steady-state add/remove churn allocates nothing. Whoever allocates the
// slot owns its lifetime — PelsSource and borrowing controllers only view it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cc/cubic.h"
#include "cc/dcqcn.h"
#include "cc/mkc.h"
#include "cc/scream_lite.h"
#include "cc/swift.h"
#include "video/gamma_controller.h"

namespace pels {

/// Shared per-kind configs for a table's zoo flows (heterogeneous configs
/// within one kind use several tables, like MKC).
struct CcZooConfig {
  CubicConfig cubic{};
  DcqcnConfig dcqcn{};
  SwiftConfig swift{};
  ScreamLiteConfig scream{};
};

class FlowTable {
 public:
  /// All flows in one table share the MKC and gamma configs (heterogeneous
  /// populations use several tables). Every config is validated here, zoo
  /// kinds included, so a bad gain throws std::invalid_argument in any build.
  FlowTable(MkcConfig mkc, GammaConfig gamma, CcZooConfig zoo = {});

  /// Pre-sizes every column (and the free list) for `flows` concurrent
  /// flows, so steady-state add/remove churn allocates nothing.
  void reserve(std::size_t flows);

  /// Allocates a slot initialized from the configs (rate =
  /// mkc.initial_rate_bps, gamma = gamma.initial_gamma).
  FlowSlot add_flow();
  /// Allocates a slot with explicit initial rate/gamma (mixed-traffic
  /// generators start classes at different operating points).
  FlowSlot add_flow(double initial_rate_bps, double initial_gamma);
  /// Allocates a slot of the given controller kind, initialized from that
  /// kind's config. The first non-MKC flow enables the zoo columns.
  FlowSlot add_flow(CcKind kind);
  /// Frees a slot for reuse. Outstanding references to it are invalid.
  void remove_flow(FlowSlot slot);

  /// Live (allocated) flows.
  std::size_t size() const { return live_count_; }
  /// Allocated column length (high-water mark of concurrent flows).
  std::size_t capacity() const { return rate_.size(); }
  bool is_live(FlowSlot slot) const {
    return slot < flags_.size() && (flags_[slot] & kLive) != 0;
  }

  bool zoo_enabled() const { return zoo_enabled_; }

  // --- per-flow hot scalars ---------------------------------------------
  CcKind kind(FlowSlot slot) const {
    return zoo_enabled_ ? static_cast<CcKind>(kind_[slot]) : CcKind::kMkc;
  }
  double rate_bps(FlowSlot slot) const { return rate_[slot]; }
  double gamma(FlowSlot slot) const { return gamma_col_[slot]; }
  /// Mutable pacing-EWMA cell (PelsSource updates it per packet). Invalidated
  /// by add_flow growth like any vector reference — re-fetch per use.
  double& paced_rate_ref(FlowSlot slot) { return paced_rate_[slot]; }
  bool in_silence(FlowSlot slot) const { return (flags_[slot] & kSilent) != 0; }
  std::uint64_t mkc_updates(FlowSlot slot) const { return mkc_updates_[slot]; }
  std::uint64_t silence_ticks(FlowSlot slot) const { return silence_ticks_[slot]; }
  std::uint64_t gamma_updates(FlowSlot slot) const { return gamma_updates_[slot]; }

  // Zoo state views (valid once the zoo columns exist; see the column-sharing
  // map in the header comment).
  SimTime srtt(FlowSlot slot) const { return srtt_[slot]; }
  SimTime min_rtt(FlowSlot slot) const { return zoo_t2_[slot]; }
  double cubic_cwnd(FlowSlot slot) const { return zoo_win_[slot]; }
  double cubic_wmax(FlowSlot slot) const { return zoo_a_[slot]; }
  double dcqcn_target(FlowSlot slot) const { return zoo_a_[slot]; }
  double dcqcn_alpha(FlowSlot slot) const { return zoo_b_[slot]; }
  std::int32_t dcqcn_stage(FlowSlot slot) const { return zoo_stage_[slot]; }
  SimTime swift_prev_rtt(FlowSlot slot) const { return zoo_t_[slot]; }

  // --- per-flow control (controller views, the population driver's tick) --
  void apply_feedback(FlowSlot slot, double p);
  void apply_silence(FlowSlot slot);
  double apply_gamma(FlowSlot slot, double p);
  /// Zoo signal entry points; dispatch on the slot's kind (MKC ignores them,
  /// matching the per-object controllers' default overrides). `now` anchors
  /// event timestamps (CUBIC's epoch start).
  void apply_rtt(FlowSlot slot, SimTime rtt);
  void apply_loss_interval(FlowSlot slot, double p, SimTime now);
  void apply_mark_fraction(FlowSlot slot, double f, SimTime now);
  void apply_control_tick(FlowSlot slot, SimTime now);

  const MkcConfig& mkc_config() const { return mkc_; }
  const CcZooConfig& zoo_config() const { return zoo_cfg_; }

  /// Heap footprint of every column plus the free list (capacities, not
  /// sizes): the bytes/flow budget reported by bench/many_flows counts this.
  /// Zoo columns count only once enabled.
  std::size_t memory_bytes() const {
    return rate_.capacity() * sizeof(double) + gamma_col_.capacity() * sizeof(double) +
           paced_rate_.capacity() * sizeof(double) +
           recovery_left_.capacity() * sizeof(std::int32_t) +
           flags_.capacity() * sizeof(std::uint8_t) +
           mkc_updates_.capacity() * sizeof(std::uint64_t) +
           silence_ticks_.capacity() * sizeof(std::uint64_t) +
           gamma_updates_.capacity() * sizeof(std::uint64_t) +
           kind_.capacity() * sizeof(std::uint8_t) +
           srtt_.capacity() * sizeof(SimTime) + zoo_win_.capacity() * sizeof(double) +
           zoo_a_.capacity() * sizeof(double) + zoo_b_.capacity() * sizeof(double) +
           zoo_t_.capacity() * sizeof(SimTime) + zoo_t2_.capacity() * sizeof(SimTime) +
           zoo_stage_.capacity() * sizeof(std::int32_t) +
           free_slots_.capacity() * sizeof(FlowSlot);
  }

 private:
  static constexpr std::uint8_t kLive = 1u << 0;
  static constexpr std::uint8_t kSilent = 1u << 1;

  /// Allocates the zoo columns (at current capacity, grown with the table
  /// afterwards). Called by the first add_flow with a non-MKC kind.
  void enable_zoo();
  void init_zoo_slot(FlowSlot slot, CcKind kind);
  static double initial_rate_for(const MkcConfig& mkc, const CcZooConfig& zoo,
                                 CcKind kind);

  MkcConfig mkc_;
  GammaConfig gamma_cfg_;
  CcZooConfig zoo_cfg_;

  // Parallel columns indexed by FlowSlot. Hot control scalars first.
  std::vector<double> rate_;            // controller rate (bps), any kind
  std::vector<double> gamma_col_;       // FGS red fraction
  std::vector<double> paced_rate_;      // pacing EWMA (PelsSource)
  std::vector<std::int32_t> recovery_left_;
  std::vector<std::uint8_t> flags_;     // kLive | kSilent
  std::vector<std::uint64_t> mkc_updates_;
  std::vector<std::uint64_t> silence_ticks_;
  std::vector<std::uint64_t> gamma_updates_;
  // Zoo columns (empty until enable_zoo(); see header comment for sharing).
  bool zoo_enabled_ = false;
  std::vector<std::uint8_t> kind_;
  std::vector<SimTime> srtt_;
  std::vector<double> zoo_win_;        // CUBIC cwnd (packets)
  std::vector<double> zoo_a_;          // CUBIC W_max | DCQCN target rate
  std::vector<double> zoo_b_;          // CUBIC K | DCQCN alpha
  std::vector<SimTime> zoo_t_;         // CUBIC epoch start | Swift prev RTT
  std::vector<SimTime> zoo_t2_;        // Swift/SCReAM min RTT
  std::vector<std::int32_t> zoo_stage_;  // DCQCN recovery stage

  std::vector<FlowSlot> free_slots_;
  std::size_t live_count_ = 0;
};

}  // namespace pels
