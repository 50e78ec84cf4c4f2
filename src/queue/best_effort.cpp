#include "queue/best_effort.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pels {

void BestEffortQueueConfig::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("BestEffortQueueConfig: ") + what);
  };
  require(link_bandwidth_bps > 0.0, "link_bandwidth_bps must be > 0");
  require(video_weight > 0.0, "video_weight must be > 0");
  require(internet_weight > 0.0, "internet_weight must be > 0");
  require(feedback_interval > 0, "feedback_interval must be > 0");
  require(video_limit > 0, "video_limit must be >= 1 packet");
  require(internet_limit > 0, "internet_limit must be >= 1 packet");
  require(loss_ceiling > 0.0 && loss_ceiling < 1.0, "loss_ceiling must be in (0, 1)");
  require(loss_floor < loss_ceiling, "loss_floor must be < loss_ceiling");
  require(feedback_rate_ewma > 0.0 && feedback_rate_ewma <= 1.0,
          "feedback_rate_ewma must be in (0, 1]");
}

namespace {
// The meter and timer are built from the config in the initializer list, so
// validation has to happen before any of them.
BestEffortQueueConfig validated(const BestEffortQueueConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

BestEffortQueue::BestEffortQueue(Scheduler& sched, Rng rng, BestEffortQueueConfig config)
    : cfg_(validated(config)),
      rng_(rng),
      video_(cfg_.video_limit),
      internet_(cfg_.internet_limit),
      drr_(cfg_.video_weight, cfg_.internet_weight),
      meter_(cfg_.router_id,
             cfg_.link_bandwidth_bps * cfg_.video_weight /
                 (cfg_.video_weight + cfg_.internet_weight),
             cfg_.feedback_interval, cfg_.loss_floor, cfg_.loss_ceiling,
             cfg_.feedback_rate_ewma),
      feedback_timer_(sched, cfg_.feedback_interval, [this] { meter_.close_interval(); }) {
  feedback_timer_.start();
}

bool BestEffortQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  DropTailQueue* fifo = &internet_;
  if (pkt.color != Color::kInternet) {
    const bool is_fgs = pkt.color == Color::kYellow || pkt.color == Color::kRed;
    meter_.add_bytes(pkt.size_bytes, is_fgs);
    const bool protected_pkt =
        pkt.color == Color::kAck ||
        (cfg_.protect_base_layer && pkt.color == Color::kGreen);
    // Drop probability is the FGS-layer loss: the whole overshoot must be
    // shed from the droppable (non-green) traffic for demand to fit.
    const double p_drop = std::max(meter_.fgs_loss(), 0.0);
    if (!protected_pkt && meter_.epoch() > 0 && rng_.bernoulli(p_drop)) {
      note_drop(pkt);
      return false;
    }
    fifo = &video_;
  }
  if (fifo->enqueue(std::move(pkt))) return true;
  note_drop(pkt);  // DropTailQueue leaves a refused packet untouched
  return false;
}

bool BestEffortQueue::dequeue(Packet& out) {
  const int served = drr_.select(video_.head_bytes(), internet_.head_bytes());
  if (served < 0) return false;
  (served == 0 ? video_ : internet_).dequeue(out);
  counters().count_departure(out);
  if (out.color != Color::kInternet) meter_.stamp(out);
  return true;
}

}  // namespace pels
