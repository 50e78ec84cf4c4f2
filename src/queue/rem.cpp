#include "queue/rem.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pels {

void RemQueueConfig::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("RemQueueConfig: ") + what);
  };
  require(link_bandwidth_bps > 0.0, "link_bandwidth_bps must be > 0");
  require(video_weight > 0.0, "video_weight must be > 0");
  require(internet_weight > 0.0, "internet_weight must be > 0");
  require(price_interval > 0, "price_interval must be > 0");
  require(gamma > 0.0 && std::isfinite(gamma), "gamma must be finite and > 0");
  require(alpha_q >= 0.0 && std::isfinite(alpha_q), "alpha_q must be finite and >= 0");
  require(phi > 1.0 && std::isfinite(phi), "phi must be finite and > 1");
  require(video_limit > 0, "video_limit must be >= 1 packet");
  require(internet_limit > 0, "internet_limit must be >= 1 packet");
}

namespace {
// The price timer and capacity share are built from the config in the
// initializer list, so validation has to happen before any of them.
RemQueueConfig validated(const RemQueueConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

RemQueue::RemQueue(Scheduler& sched, Rng rng, RemQueueConfig config)
    : cfg_(validated(config)),
      video_capacity_bps_(cfg_.link_bandwidth_bps * cfg_.video_weight /
                          (cfg_.video_weight + cfg_.internet_weight)),
      rng_(rng),
      video_(cfg_.video_limit),
      internet_(cfg_.internet_limit),
      drr_(cfg_.video_weight, cfg_.internet_weight),
      price_timer_(sched, cfg_.price_interval, [this] { update_price(); }) {
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
  DropTailQueue& fifo = pkt.color == Color::kInternet ? internet_ : video_;
  if (fifo.enqueue(std::move(pkt))) return true;
  note_drop(pkt);  // DropTailQueue leaves a refused packet untouched
  return false;
}

bool RemQueue::dequeue(Packet& out) {
  const int served = drr_.select(video_.head_bytes(), internet_.head_bytes());
  if (served < 0) return false;
  (served == 0 ? video_ : internet_).dequeue(out);
  counters().count_departure(out);
  return true;
}

void RemQueue::update_price() {
  const double t_sec = to_seconds(cfg_.price_interval);
  const double rate_in = static_cast<double>(interval_bytes_) * 8.0 / t_sec;
  const double backlog_bits = static_cast<double>(video_.byte_count()) * 8.0;
  const double excess = cfg_.alpha_q * backlog_bits + rate_in - video_capacity_bps_;
  price_ = std::max(0.0, price_ + cfg_.gamma * excess);
  interval_bytes_ = 0;
}

}  // namespace pels
