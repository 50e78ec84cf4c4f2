#include "cc/cubic.h"

#include <stdexcept>

#include "cc/flow_table.h"

namespace pels {

void CubicConfig::validate() const {
  if (!(c > 0.0)) throw std::invalid_argument("CubicConfig: c must be > 0");
  if (!(beta > 0.0 && beta < 1.0))
    throw std::invalid_argument("CubicConfig: beta must be in (0, 1)");
  if (!(ecn_beta > 0.0 && ecn_beta < 1.0))
    throw std::invalid_argument("CubicConfig: ecn_beta must be in (0, 1)");
  if (!(mss_bytes > 0.0)) throw std::invalid_argument("CubicConfig: mss_bytes must be > 0");
  if (!(min_cwnd_pkts > 0.0 && min_cwnd_pkts <= initial_cwnd_pkts))
    throw std::invalid_argument(
        "CubicConfig: cwnds must satisfy 0 < min_cwnd_pkts <= initial_cwnd_pkts");
  if (initial_rtt <= 0) throw std::invalid_argument("CubicConfig: initial_rtt must be > 0");
}

CubicController::CubicController(CubicConfig config)
    : TableController(
          std::make_unique<FlowTable>(MkcConfig{}, GammaConfig{}, CcZooConfig{.cubic = config}),
          CcKind::kCubic) {}

CubicController::CubicController(FlowTable& table, FlowSlot slot)
    : TableController(table, slot, CcKind::kCubic) {}

const CubicConfig& CubicController::config() const { return table_->zoo_config().cubic; }

double CubicController::cwnd_pkts() const { return table_->cubic_cwnd(slot_); }

double CubicController::w_max() const { return table_->cubic_wmax(slot_); }

SimTime CubicController::srtt() const { return table_->srtt(slot_); }

void CubicController::on_loss_interval(double p, SimTime now) {
  table_->apply_loss_interval(slot_, p, now);
}

void CubicController::on_mark_fraction(double f, SimTime now) {
  table_->apply_mark_fraction(slot_, f, now);
}

void CubicController::on_control_tick(SimTime now) { table_->apply_control_tick(slot_, now); }

void CubicController::set_rtt(SimTime rtt) { table_->apply_rtt(slot_, rtt); }

void CubicController::register_metrics(MetricsRegistry& registry,
                                       const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  registry.add_probe(prefix + ".cubic_cwnd_pkts", [this] { return cwnd_pkts(); });
  registry.add_probe(prefix + ".cubic_wmax_pkts", [this] { return w_max(); });
}

}  // namespace pels
