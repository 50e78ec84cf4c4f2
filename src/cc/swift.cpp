#include "cc/swift.h"

#include <stdexcept>

#include "cc/flow_table.h"

namespace pels {

void SwiftConfig::validate() const {
  if (!(q_low >= 0 && q_low < q_high))
    throw std::invalid_argument("SwiftConfig: q_low must satisfy 0 <= q_low < q_high");
  if (gradient_scale <= 0)
    throw std::invalid_argument("SwiftConfig: gradient_scale must be > 0");
  if (!(ai_bps > 0.0)) throw std::invalid_argument("SwiftConfig: ai_bps must be > 0");
  if (!(md_gain > 0.0 && md_gain <= 1.0))
    throw std::invalid_argument("SwiftConfig: md_gain must be in (0, 1]");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "SwiftConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
}

SwiftController::SwiftController(SwiftConfig config)
    : TableController(
          std::make_unique<FlowTable>(MkcConfig{}, GammaConfig{}, CcZooConfig{.swift = config}),
          CcKind::kSwift) {}

SwiftController::SwiftController(FlowTable& table, FlowSlot slot)
    : TableController(table, slot, CcKind::kSwift) {}

const SwiftConfig& SwiftController::config() const { return table_->zoo_config().swift; }

SimTime SwiftController::srtt() const { return table_->srtt(slot_); }

SimTime SwiftController::min_rtt() const { return table_->min_rtt(slot_); }

void SwiftController::on_control_tick(SimTime now) { table_->apply_control_tick(slot_, now); }

void SwiftController::set_rtt(SimTime rtt) { table_->apply_rtt(slot_, rtt); }

void SwiftController::register_metrics(MetricsRegistry& registry,
                                       const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  registry.add_probe(prefix + ".swift_qdelay_ms", [this] {
    const SimTime base = min_rtt();
    return base > 0 ? to_millis(srtt() - base) : 0.0;
  });
}

}  // namespace pels
