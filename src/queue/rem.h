// REM — Random Exponential Marking (Lapsley & Low; the paper's §2.2
// citation [20]: "router-based Random Early Marking that works with
// cooperating end-flows to maximize their individual utilities").
//
// The router maintains a *price* updated every interval T:
//
//   price <- max(0, price + gamma * (alpha_q * backlog + rate_in - capacity))
//
// and marks each arriving packet with probability 1 - phi^(-price). Prices
// sum along a path (the end-to-end unmarked probability is phi^(-sum of
// prices)), so a source observing mark fraction f recovers the path price as
// -log_phi(1 - f) and can run utility-based rate control with no packet
// loss at all — congestion is signalled, not enforced.
//
// Used here as the marking-based bottleneck kind in DumbbellScenario: it
// shares the WRR split (a Drr2 over two DropTailQueue members) with the
// Internet queue like the other bottlenecks, but the video FIFO marks
// instead of dropping (overflow still tail-drops).
#pragma once

#include "net/queue_disc.h"
#include "queue/drop_tail.h"
#include "queue/drr.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace pels {

struct RemQueueConfig {
  double link_bandwidth_bps = 4e6;
  double video_weight = 0.5;
  double internet_weight = 0.5;
  SimTime price_interval = from_millis(30);
  double gamma = 1e-7;    // price gain per (bit/s) of excess demand
  double alpha_q = 0.3;   // weight of backlog (bits -> bit/s equivalent)
  double phi = 2.0;       // marking base: P(mark) = 1 - phi^(-price)
  std::size_t video_limit = 400;  // packets; generous — REM aims for no loss
  std::size_t internet_limit = 100;

  /// Throws std::invalid_argument naming the first out-of-range field
  /// (non-positive bandwidth, weights, interval or gamma, negative alpha_q,
  /// phi <= 1 — which would never mark — or zero limits). Construction
  /// validates; call directly to fail fast before building a scenario.
  void validate() const;
};

class RemQueue : public QueueDisc {
 public:
  RemQueue(Scheduler& sched, Rng rng, RemQueueConfig config);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override {
    return video_.packet_count() + internet_.packet_count();
  }
  std::int64_t byte_count() const override { return video_.byte_count() + internet_.byte_count(); }

  double video_capacity_bps() const { return video_capacity_bps_; }
  double price() const { return price_; }
  /// Current per-packet marking probability 1 - phi^(-price).
  double mark_probability() const;
  std::uint64_t packets_marked() const { return marked_; }

  const RemQueueConfig& config() const { return cfg_; }

 private:
  void update_price();

  RemQueueConfig cfg_;
  double video_capacity_bps_;
  Rng rng_;
  DropTailQueue video_;
  DropTailQueue internet_;
  Drr2 drr_;  // class 0 = video FIFO, class 1 = Internet FIFO
  PeriodicTimer price_timer_;
  std::int64_t interval_bytes_ = 0;
  double price_ = 0.0;
  std::uint64_t marked_ = 0;
};

}  // namespace pels
