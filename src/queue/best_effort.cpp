#include "queue/best_effort.h"

#include <algorithm>
#include <cassert>

namespace pels {

BestEffortQueue::BestEffortQueue(Scheduler& sched, Rng rng, BestEffortQueueConfig config)
    : cfg_(config),
      rng_(rng),
      meter_(cfg_.router_id,
             cfg_.link_bandwidth_bps * cfg_.video_weight /
                 (cfg_.video_weight + cfg_.internet_weight),
             cfg_.feedback_interval, cfg_.loss_floor, cfg_.loss_ceiling,
             cfg_.feedback_rate_ewma),
      feedback_timer_(sched, cfg_.feedback_interval, [this] { meter_.close_interval(); }) {
  assert(cfg_.link_bandwidth_bps > 0.0);
  assert(cfg_.video_weight > 0.0 && cfg_.internet_weight > 0.0);

  auto video = std::make_unique<DropTailQueue>(cfg_.video_limit);
  auto internet = std::make_unique<DropTailQueue>(cfg_.internet_limit);
  video_ = video.get();
  internet_ = internet.get();

  std::vector<WrrQueue::Child> children;
  children.push_back({std::move(video), cfg_.video_weight});
  children.push_back({std::move(internet), cfg_.internet_weight});
  wrr_ = std::make_unique<WrrQueue>(
      std::move(children),
      [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; });
  wrr_->set_drop_handler([this](const Packet& p) { note_drop(p); });

  feedback_timer_.start();
}

bool BestEffortQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
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
  }
  return wrr_->enqueue(std::move(pkt));
}

bool BestEffortQueue::dequeue(Packet& out) {
  if (!wrr_->dequeue(out)) return false;
  counters().count_departure(out);
  if (out.color != Color::kInternet) meter_.stamp(out);
  return true;
}

}  // namespace pels
