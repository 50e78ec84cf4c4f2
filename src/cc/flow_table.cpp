#include "cc/flow_table.h"

#include <cassert>
#include <utility>

namespace pels {

const char* cc_kind_name(CcKind kind) {
  switch (kind) {
    case CcKind::kMkc: return "MKC";
    case CcKind::kCubic: return "CUBIC";
    case CcKind::kDcqcn: return "DCQCN";
    case CcKind::kSwift: return "Swift";
    case CcKind::kScream: return "SCReAM-lite";
  }
  return "?";
}

TableController::TableController(FlowTable& table, FlowSlot slot,
                                 [[maybe_unused]] CcKind kind)
    : table_(&table), slot_(slot) {
  assert(table.is_live(slot) && "a table controller needs an allocated slot");
  assert(table.kind(slot) == kind && "slot allocated for another controller kind");
}

TableController::TableController(std::unique_ptr<FlowTable> table, CcKind kind)
    : table_(table.get()), slot_(table->add_flow(kind)), owned_(std::move(table)) {}

TableController::~TableController() = default;

double TableController::rate_bps() const { return table_->rate_bps(slot_); }

FlowTable::FlowTable(MkcConfig mkc, GammaConfig gamma, CcZooConfig zoo)
    : mkc_(mkc), gamma_cfg_(gamma), zoo_cfg_(zoo) {
  mkc_.validate();
  gamma_cfg_.validate();
  zoo_cfg_.cubic.validate();
  zoo_cfg_.dcqcn.validate();
  zoo_cfg_.swift.validate();
  zoo_cfg_.scream.validate();
}

void FlowTable::reserve(std::size_t flows) {
  rate_.reserve(flows);
  gamma_col_.reserve(flows);
  paced_rate_.reserve(flows);
  recovery_left_.reserve(flows);
  flags_.reserve(flows);
  mkc_updates_.reserve(flows);
  silence_ticks_.reserve(flows);
  gamma_updates_.reserve(flows);
  free_slots_.reserve(flows);
  if (zoo_enabled_) {
    kind_.reserve(flows);
    srtt_.reserve(flows);
    zoo_win_.reserve(flows);
    zoo_a_.reserve(flows);
    zoo_b_.reserve(flows);
    zoo_t_.reserve(flows);
    zoo_t2_.reserve(flows);
    zoo_stage_.reserve(flows);
  }
}

void FlowTable::enable_zoo() {
  if (zoo_enabled_) return;
  zoo_enabled_ = true;
  const std::size_t n = rate_.size();
  // Back-fill for already-allocated slots: all pre-zoo flows are MKC.
  kind_.assign(n, static_cast<std::uint8_t>(CcKind::kMkc));
  srtt_.assign(n, 0);
  zoo_win_.assign(n, 0.0);
  zoo_a_.assign(n, 0.0);
  zoo_b_.assign(n, 0.0);
  zoo_t_.assign(n, 0);
  zoo_t2_.assign(n, 0);
  zoo_stage_.assign(n, 0);
}

double FlowTable::initial_rate_for(const MkcConfig& mkc, const CcZooConfig& zoo,
                                   CcKind kind) {
  switch (kind) {
    case CcKind::kMkc: return mkc.initial_rate_bps;
    case CcKind::kCubic:
      return cubic_rate_from_cwnd(zoo.cubic, zoo.cubic.initial_cwnd_pkts, 0);
    case CcKind::kDcqcn: return zoo.dcqcn.initial_rate_bps;
    case CcKind::kSwift: return zoo.swift.initial_rate_bps;
    case CcKind::kScream: return zoo.scream.initial_rate_bps;
  }
  return mkc.initial_rate_bps;
}

FlowSlot FlowTable::add_flow() {
  return add_flow(mkc_.initial_rate_bps, gamma_cfg_.initial_gamma);
}

FlowSlot FlowTable::add_flow(CcKind kind) {
  if (kind != CcKind::kMkc) enable_zoo();
  const FlowSlot slot =
      add_flow(initial_rate_for(mkc_, zoo_cfg_, kind), gamma_cfg_.initial_gamma);
  if (zoo_enabled_) init_zoo_slot(slot, kind);
  return slot;
}

FlowSlot FlowTable::add_flow(double initial_rate_bps, double initial_gamma) {
  FlowSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<FlowSlot>(rate_.size());
    rate_.emplace_back();
    gamma_col_.emplace_back();
    paced_rate_.emplace_back();
    recovery_left_.emplace_back();
    flags_.emplace_back();
    mkc_updates_.emplace_back();
    silence_ticks_.emplace_back();
    gamma_updates_.emplace_back();
    if (zoo_enabled_) {
      kind_.emplace_back();
      srtt_.emplace_back();
      zoo_win_.emplace_back();
      zoo_a_.emplace_back();
      zoo_b_.emplace_back();
      zoo_t_.emplace_back();
      zoo_t2_.emplace_back();
      zoo_stage_.emplace_back();
    }
  }
  rate_[slot] = initial_rate_bps;
  gamma_col_[slot] = initial_gamma;
  paced_rate_[slot] = 0.0;
  recovery_left_[slot] = 0;
  flags_[slot] = kLive;
  mkc_updates_[slot] = 0;
  silence_ticks_[slot] = 0;
  gamma_updates_[slot] = 0;
  if (zoo_enabled_) init_zoo_slot(slot, CcKind::kMkc);
  ++live_count_;
  return slot;
}

void FlowTable::init_zoo_slot(FlowSlot slot, CcKind kind) {
  kind_[slot] = static_cast<std::uint8_t>(kind);
  srtt_[slot] = 0;
  zoo_win_[slot] = kind == CcKind::kCubic ? zoo_cfg_.cubic.initial_cwnd_pkts : 0.0;
  zoo_a_[slot] = kind == CcKind::kDcqcn ? zoo_cfg_.dcqcn.initial_rate_bps : 0.0;
  zoo_b_[slot] = kind == CcKind::kDcqcn ? zoo_cfg_.dcqcn.initial_alpha : 0.0;
  zoo_t_[slot] = 0;
  zoo_t2_[slot] = 0;
  zoo_stage_[slot] = 0;
}

void FlowTable::remove_flow(FlowSlot slot) {
  assert(is_live(slot) && "remove_flow on a dead or out-of-range slot");
  flags_[slot] = 0;
  free_slots_.push_back(slot);
  --live_count_;
}

void FlowTable::apply_feedback(FlowSlot slot, double p) {
  assert(is_live(slot));
  bool silent = (flags_[slot] & kSilent) != 0;
  mkc_feedback_step(mkc_, p, rate_[slot], silent, recovery_left_[slot],
                    mkc_updates_[slot]);
  flags_[slot] = static_cast<std::uint8_t>(silent ? flags_[slot] | kSilent
                                                  : flags_[slot] & ~kSilent);
}

void FlowTable::apply_silence(FlowSlot slot) {
  assert(is_live(slot));
  bool silent = (flags_[slot] & kSilent) != 0;
  mkc_silence_step(mkc_, rate_[slot], silent, silence_ticks_[slot]);
  flags_[slot] = static_cast<std::uint8_t>(silent ? flags_[slot] | kSilent
                                                  : flags_[slot] & ~kSilent);
}

double FlowTable::apply_gamma(FlowSlot slot, double p) {
  assert(is_live(slot));
  return gamma_update_step(gamma_cfg_, p, gamma_col_[slot], gamma_updates_[slot]);
}

void FlowTable::apply_feedback_all(double p, double p_fgs) {
  const auto n = static_cast<FlowSlot>(flags_.size());
  for (FlowSlot slot = 0; slot < n; ++slot) {
    if ((flags_[slot] & kLive) == 0) continue;
    apply_feedback(slot, p);
    apply_gamma(slot, p_fgs);
  }
}

void FlowTable::apply_rtt(FlowSlot slot, SimTime rtt) {
  assert(is_live(slot));
  if (!zoo_enabled_ || rtt <= 0) return;
  srtt_[slot] = rtt;
  // SCReAM additionally tracks the propagation-delay baseline on each
  // sample; Swift refreshes its minimum inside the tick kernel instead.
  if (kind(slot) == CcKind::kScream) scream_rtt_step(rtt, zoo_t2_[slot]);
}

void FlowTable::apply_loss_interval(FlowSlot slot, double p, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_ || p <= 0.0) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      cubic_event_step(zoo_cfg_.cubic, zoo_cfg_.cubic.beta, now, srtt_[slot],
                       zoo_win_[slot], zoo_a_[slot], zoo_b_[slot], zoo_t_[slot],
                       rate_[slot]);
      break;
    case CcKind::kDcqcn:
      dcqcn_mark_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                      zoo_stage_[slot]);
      break;
    case CcKind::kScream:
      scream_loss_step(zoo_cfg_.scream, p, rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kSwift:
      break;  // MKC steers by labels, Swift by delay
  }
}

void FlowTable::apply_mark_fraction(FlowSlot slot, double f, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      if (f > 0.0) {
        cubic_event_step(zoo_cfg_.cubic, zoo_cfg_.cubic.ecn_beta, now, srtt_[slot],
                         zoo_win_[slot], zoo_a_[slot], zoo_b_[slot], zoo_t_[slot],
                         rate_[slot]);
      }
      break;
    case CcKind::kDcqcn:
      if (f > 0.0) {
        dcqcn_mark_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                        zoo_stage_[slot]);
      } else {
        dcqcn_increase_step(zoo_cfg_.dcqcn, rate_[slot], zoo_a_[slot], zoo_b_[slot],
                            zoo_stage_[slot]);
      }
      break;
    case CcKind::kScream:
      if (f > 0.0) scream_mark_step(zoo_cfg_.scream, f, rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kSwift:
      break;
  }
}

void FlowTable::apply_control_tick(FlowSlot slot, SimTime now) {
  assert(is_live(slot));
  if (!zoo_enabled_) return;
  switch (kind(slot)) {
    case CcKind::kCubic:
      cubic_tick_step(zoo_cfg_.cubic, now, srtt_[slot], zoo_win_[slot], zoo_a_[slot],
                      zoo_b_[slot], zoo_t_[slot], rate_[slot]);
      break;
    case CcKind::kSwift:
      swift_tick_step(zoo_cfg_.swift, srtt_[slot], zoo_t_[slot], zoo_t2_[slot],
                      rate_[slot]);
      break;
    case CcKind::kScream:
      scream_tick_step(zoo_cfg_.scream, srtt_[slot], zoo_t2_[slot], rate_[slot]);
      break;
    case CcKind::kMkc:
    case CcKind::kDcqcn:
      break;  // event-driven: no periodic update
  }
}

}  // namespace pels
