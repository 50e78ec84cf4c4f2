#include "cc/mkc.h"

#include <stdexcept>

#include "cc/flow_table.h"

namespace pels {

void MkcConfig::validate() const {
  if (!(alpha_bps > 0.0)) throw std::invalid_argument("MkcConfig: alpha_bps must be > 0");
  if (!(beta > 0.0 && beta < 2.0))
    throw std::invalid_argument("MkcConfig: beta must be in (0, 2) (Lemma 5 stability)");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "MkcConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
  if (!(silence_decay > 0.0 && silence_decay <= 1.0))
    throw std::invalid_argument("MkcConfig: silence_decay must be in (0, 1]");
}

MkcController::MkcController(MkcConfig config)
    : TableController(std::make_unique<FlowTable>(config, GammaConfig{}), CcKind::kMkc) {}

MkcController::MkcController(FlowTable& table, FlowSlot slot)
    : TableController(table, slot, CcKind::kMkc) {}

const MkcConfig& MkcController::config() const { return table_->mkc_config(); }

std::uint64_t MkcController::updates() const { return table_->mkc_updates(slot_); }

std::uint64_t MkcController::silence_ticks() const { return table_->silence_ticks(slot_); }

bool MkcController::in_silence() const { return table_->in_silence(slot_); }

void MkcController::on_router_feedback(double p, SimTime /*now*/) {
  table_->apply_feedback(slot_, p);
}

void MkcController::on_feedback_silence(SimTime /*now*/) { table_->apply_silence(slot_); }

void MkcController::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  CongestionController::register_metrics(registry, prefix);
  registry.add_probe(prefix + ".mkc_updates", [this] { return static_cast<double>(updates()); });
  registry.add_probe(prefix + ".silence_ticks",
                     [this] { return static_cast<double>(silence_ticks()); });
  registry.add_probe(prefix + ".in_silence", [this] { return in_silence() ? 1.0 : 0.0; });
}

}  // namespace pels
