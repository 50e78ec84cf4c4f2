#include "cc/scream_lite.h"

#include <stdexcept>

#include "cc/flow_table.h"

namespace pels {

void ScreamLiteConfig::validate() const {
  if (qdelay_target <= 0)
    throw std::invalid_argument("ScreamLiteConfig: qdelay_target must be > 0");
  if (!(increase_bps > 0.0))
    throw std::invalid_argument("ScreamLiteConfig: increase_bps must be > 0");
  if (!(decrease_gain > 0.0 && decrease_gain <= 1.0))
    throw std::invalid_argument("ScreamLiteConfig: decrease_gain must be in (0, 1]");
  if (!(loss_beta > 0.0 && loss_beta < 1.0))
    throw std::invalid_argument("ScreamLiteConfig: loss_beta must be in (0, 1)");
  if (!(mark_beta > 0.0 && mark_beta < 1.0))
    throw std::invalid_argument("ScreamLiteConfig: mark_beta must be in (0, 1)");
  if (!(max_tick_growth > 1.0))
    throw std::invalid_argument("ScreamLiteConfig: max_tick_growth must be > 1");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "ScreamLiteConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= "
        "max_rate_bps");
}

ScreamLiteController::ScreamLiteController(ScreamLiteConfig config)
    : TableController(
          std::make_unique<FlowTable>(MkcConfig{}, GammaConfig{}, CcZooConfig{.scream = config}),
          CcKind::kScream) {}

ScreamLiteController::ScreamLiteController(FlowTable& table, FlowSlot slot)
    : TableController(table, slot, CcKind::kScream) {}

const ScreamLiteConfig& ScreamLiteController::config() const {
  return table_->zoo_config().scream;
}

SimTime ScreamLiteController::srtt() const { return table_->srtt(slot_); }

SimTime ScreamLiteController::min_rtt() const { return table_->min_rtt(slot_); }

double ScreamLiteController::cwnd_bytes() const {
  const SimTime rtt = srtt();
  return rtt > 0 ? rate_bps() / 8.0 * to_seconds(rtt) : 0.0;
}

void ScreamLiteController::on_loss_interval(double p, SimTime now) {
  table_->apply_loss_interval(slot_, p, now);
}

void ScreamLiteController::on_mark_fraction(double f, SimTime now) {
  table_->apply_mark_fraction(slot_, f, now);
}

void ScreamLiteController::on_control_tick(SimTime now) {
  table_->apply_control_tick(slot_, now);
}

void ScreamLiteController::set_rtt(SimTime rtt) { table_->apply_rtt(slot_, rtt); }

void ScreamLiteController::register_metrics(MetricsRegistry& registry,
                                            const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  registry.add_probe(prefix + ".scream_qdelay_ms", [this] {
    const SimTime base = min_rtt();
    return base > 0 ? to_millis(srtt() - base) : 0.0;
  });
  registry.add_probe(prefix + ".scream_cwnd_bytes", [this] { return cwnd_bytes(); });
}

}  // namespace pels
