#include "queue/rem.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pels {

RemQueue::RemQueue(Scheduler& sched, Rng rng, RemQueueConfig config)
    : cfg_(config),
      video_capacity_bps_(cfg_.link_bandwidth_bps * cfg_.video_weight /
                          (cfg_.video_weight + cfg_.internet_weight)),
      rng_(rng),
      price_timer_(sched, cfg_.price_interval, [this] { update_price(); }) {
  assert(cfg_.link_bandwidth_bps > 0.0);
  assert(cfg_.gamma > 0.0 && cfg_.phi > 1.0);

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

  price_timer_.start();
}

double RemQueue::mark_probability() const {
  return 1.0 - std::pow(cfg_.phi, -price_);
}

bool RemQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  if (pkt.color != Color::kInternet) {
    interval_bytes_ += pkt.size_bytes;
    if (!pkt.ecn_marked && rng_.bernoulli(mark_probability())) {
      pkt.ecn_marked = true;
      ++marked_;
    }
  }
  return wrr_->enqueue(std::move(pkt));
}

bool RemQueue::dequeue(Packet& out) {
  if (!wrr_->dequeue(out)) return false;
  counters().count_departure(out);
  return true;
}

void RemQueue::update_price() {
  const double t_sec = to_seconds(cfg_.price_interval);
  const double rate_in = static_cast<double>(interval_bytes_) * 8.0 / t_sec;
  const double backlog_bits = static_cast<double>(video_->byte_count()) * 8.0;
  const double excess = cfg_.alpha_q * backlog_bits + rate_in - video_capacity_bps_;
  price_ = std::max(0.0, price_ + cfg_.gamma * excess);
  interval_bytes_ = 0;
}

}  // namespace pels
