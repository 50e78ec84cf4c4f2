#include "cc/dcqcn.h"

#include <stdexcept>

#include "cc/flow_table.h"

namespace pels {

void DcqcnConfig::validate() const {
  if (!(alpha_g > 0.0 && alpha_g <= 1.0))
    throw std::invalid_argument("DcqcnConfig: alpha_g must be in (0, 1]");
  if (!(initial_alpha >= 0.0 && initial_alpha <= 1.0))
    throw std::invalid_argument("DcqcnConfig: initial_alpha must be in [0, 1]");
  if (!(rate_ai_bps > 0.0)) throw std::invalid_argument("DcqcnConfig: rate_ai_bps must be > 0");
  if (fast_recovery_stages < 0)
    throw std::invalid_argument("DcqcnConfig: fast_recovery_stages must be >= 0");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "DcqcnConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
}

DcqcnController::DcqcnController(DcqcnConfig config)
    : TableController(
          std::make_unique<FlowTable>(MkcConfig{}, GammaConfig{}, CcZooConfig{.dcqcn = config}),
          CcKind::kDcqcn) {}

DcqcnController::DcqcnController(FlowTable& table, FlowSlot slot)
    : TableController(table, slot, CcKind::kDcqcn) {}

const DcqcnConfig& DcqcnController::config() const { return table_->zoo_config().dcqcn; }

double DcqcnController::alpha() const { return table_->dcqcn_alpha(slot_); }

double DcqcnController::target_rate_bps() const { return table_->dcqcn_target(slot_); }

std::int32_t DcqcnController::recovery_stage() const { return table_->dcqcn_stage(slot_); }

void DcqcnController::on_loss_interval(double p, SimTime now) {
  // Loss == congestion on a lossy path: react like a marked interval. Clean
  // intervals do not recover here — recovery rides the mark path, so a tick
  // carrying both signals recovers at most once.
  table_->apply_loss_interval(slot_, p, now);
}

void DcqcnController::on_mark_fraction(double f, SimTime now) {
  table_->apply_mark_fraction(slot_, f, now);
}

void DcqcnController::register_metrics(MetricsRegistry& registry,
                                       const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  registry.add_probe(prefix + ".dcqcn_alpha", [this] { return alpha(); });
  registry.add_probe(prefix + ".dcqcn_target_bps", [this] { return target_rate_bps(); });
}

}  // namespace pels
