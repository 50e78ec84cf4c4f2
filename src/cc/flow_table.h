// Structure-of-arrays flow state for population-scale control (ROADMAP
// "Million-flow scale-out").
//
// At N=100k concurrent PELS sources, per-flow controller objects scatter the
// MKC/gamma/pacing scalars across the heap and every control tick pays N
// virtual dispatches plus N cache misses. The FlowTable keeps those hot
// scalars in contiguous parallel columns keyed by a dense FlowSlot.
//
// One storage, one control path: the table is the only home and the only
// interface of every congestion controller's state and of PelsSource's
// gamma and pacing EWMA. The single-flow operations (apply_feedback /
// apply_silence / apply_gamma / apply_loss_interval / apply_mark_fraction /
// apply_control_tick / apply_rtt) are the only way to update it. A
// PelsSource drives its own slot with them, and the population driver
// (exp/fabric.h) ticks its whole table at once with apply_feedback_all, one
// pass over the live slots in slot order that runs the same apply_feedback +
// apply_gamma on each. Each call runs an inline kernel (mkc_feedback_step,
// cubic_tick_step, dcqcn_mark_step, aimd_backoff_step, ...) on that slot's
// columns alone, so no slot's update reads another's and the pass equals the
// per-slot calls in any order — verified by tests/flow_table_test.cpp and
// tests/cc_zoo_test.cpp.
//
// Controller kinds: each slot carries a CcKind; the apply calls dispatch per
// kind, and a kind ignores the signals its controller does not steer by
// (only MKC reacts to feedback silence; REM and the zoo ignore router
// labels). The zoo columns (CUBIC window state, DCQCN rate machine, RTT
// memories, ...) are allocated lazily on the first non-MKC flow, so
// homogeneous MKC populations — the million-flow bench — pay not a byte for
// them. Each zoo scalar column is shared across kinds (one flow has exactly
// one kind):
//   srtt       the RTT sample (CUBIC, Swift, SCReAM); TFRC's RTT estimate
//              (starts at initial_rtt); AIMD's back-off guard (starts at
//              backoff_guard, then follows the RTT)
//   zoo_win    CUBIC's cwnd
//   zoo_a      CUBIC's W_max | DCQCN's target rate | TFRC's smoothed loss |
//              REM's path price
//   zoo_b      CUBIC's K | DCQCN's alpha
//   zoo_t      CUBIC's epoch start | Swift's previous-tick RTT | AIMD's last
//              decrease (kTimeNever before the first)
//   zoo_t2     Swift's/SCReAM's min RTT
//   zoo_stage  DCQCN's recovery stage | AIMD's decrease count | TFRC's
//              loss-seen flag
// Kelly-classic keeps nothing but its rate.
//
// Slot lifecycle: add_flow() reuses freed slots LIFO (like the scheduler's
// callback pool); remove_flow() returns the slot. Columns never shrink, so a
// steady-state add/remove churn allocates nothing. Whoever allocates the
// slot owns its lifetime — PelsSource only drives it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cc/aimd.h"
#include "cc/cubic.h"
#include "cc/dcqcn.h"
#include "cc/kelly_classic.h"
#include "cc/mkc.h"
#include "cc/rem_controller.h"
#include "cc/scream_lite.h"
#include "cc/swift.h"
#include "cc/tfrc_lite.h"
#include "telemetry/metrics.h"
#include "video/gamma_controller.h"

namespace pels {

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
  kAimd = 5,
  kTfrc = 6,
  kKellyClassic = 7,
  kRem = 8,
};

/// Controller name for traces and tables ("MKC", "TFRC-lite", ...).
const char* cc_kind_name(CcKind kind);

/// Shared per-kind configs for a table's non-MKC flows (heterogeneous configs
/// within one kind use several tables, like MKC).
struct CcZooConfig {
  CubicConfig cubic{};
  DcqcnConfig dcqcn{};
  SwiftConfig swift{};
  ScreamLiteConfig scream{};
  AimdConfig aimd{};
  TfrcLiteConfig tfrc{};
  KellyClassicConfig kelly{};
  RemControllerConfig rem{};
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
  std::int32_t aimd_decreases(FlowSlot slot) const { return zoo_stage_[slot]; }
  double tfrc_smoothed_loss(FlowSlot slot) const { return zoo_a_[slot]; }
  double rem_price(FlowSlot slot) const { return zoo_a_[slot]; }

  // --- per-flow control (PelsSource, the population driver's tick) --------
  // Each call dispatches on the slot's kind; a kind ignores the signals its
  // controller does not steer by. `now` anchors event timestamps (CUBIC's
  // epoch start, AIMD's back-off guard).
  /// Fresh router feedback p (eq. (11)), one call per router epoch (§5.2
  /// freshness rule): MKC, AIMD, TFRC (slow-start gate) and Kelly-classic.
  void apply_feedback(FlowSlot slot, double p, SimTime now);
  /// Feedback-staleness watchdog tick: MKC decays toward its silence floor;
  /// the other kinds are not steered by router labels and ignore it.
  void apply_silence(FlowSlot slot);
  double apply_gamma(FlowSlot slot, double p);
  /// The population tick: apply_feedback(slot, p, now) then apply_gamma(slot,
  /// p_fgs) on every live slot, in slot order, as one linear pass over the
  /// columns. Freed slots are skipped and keep their state. An MKC-only
  /// table runs the MKC kernel with no per-slot kind check.
  void apply_feedback_all(double p, double p_fgs, SimTime now);
  /// Smoothed RTT sample (CUBIC, Swift, SCReAM, TFRC; AIMD's back-off guard).
  void apply_rtt(FlowSlot slot, SimTime rtt);
  /// Receiver-measured loss fraction over the last control interval.
  void apply_loss_interval(FlowSlot slot, double p, SimTime now);
  /// Receiver-measured ECN mark fraction over the last control interval.
  void apply_mark_fraction(FlowSlot slot, double f, SimTime now);
  /// End of a control interval, after the interval's feedback/loss/mark
  /// deliveries: the clocked kinds (CUBIC, Swift, SCReAM) update here.
  void apply_control_tick(FlowSlot slot, SimTime now);

  /// Registers pull probes on `slot` under `prefix.`: ".rate_bps" for every
  /// kind, then the kind's own state (MKC: ".mkc_updates", ".silence_ticks",
  /// ".in_silence"; CUBIC: ".cubic_cwnd_pkts", ".cubic_wmax_pkts"; DCQCN:
  /// ".dcqcn_alpha", ".dcqcn_target_bps"; Swift: ".swift_qdelay_ms"; SCReAM:
  /// ".scream_qdelay_ms", ".scream_cwnd_bytes"). The probes read the columns
  /// at sample time, so the control path stays untouched; the table must
  /// outlive the registry's sampling and the slot stay allocated.
  void register_slot_metrics(MetricsRegistry& registry, const std::string& prefix,
                             FlowSlot slot);

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
  /// MKC feedback on one slot (the whole of apply_feedback on an MKC slot).
  /// Defined here so the population tick's MKC-only loop inlines it.
  void mkc_feedback(FlowSlot slot, double p) {
    bool silent = (flags_[slot] & kSilent) != 0;
    mkc_feedback_step(mkc_, p, rate_[slot], silent, recovery_left_[slot],
                      mkc_updates_[slot]);
    flags_[slot] = static_cast<std::uint8_t>(silent ? flags_[slot] | kSilent
                                                    : flags_[slot] & ~kSilent);
  }
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
  std::vector<double> zoo_win_;
  std::vector<double> zoo_a_;
  std::vector<double> zoo_b_;
  std::vector<SimTime> zoo_t_;
  std::vector<SimTime> zoo_t2_;
  std::vector<std::int32_t> zoo_stage_;

  std::vector<FlowSlot> free_slots_;
  std::size_t live_count_ = 0;
};

}  // namespace pels
