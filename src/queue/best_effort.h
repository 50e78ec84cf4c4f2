// Best-effort comparator bottleneck (paper §6.5).
//
// The paper compares PELS against a "generic" best-effort streaming scheme:
// MKC congestion control with the same router feedback, but *colour-blind*
// random dropping in the video queue — except that the base layer is
// "magically" protected (without that, loss propagation through each GOP
// makes best-effort streaming simply impossible, §6.5). This queue realizes
// that comparator:
//
//   WRR --+-- video FIFO: arrivals dropped u.a.r. with the current overload
//         |   probability max(p, 0) from eq. (11); green exempt
//         +-- Internet FIFO
//
// Built flat like PelsQueue: both FIFOs are DropTailQueue members and the
// WRR split is a Drr2.
//
// Dropping with probability p = (R-C)/R sheds exactly the excess demand in
// expectation, i.e. it is the idealized RED-like uniform random loss the
// paper's §3.1 model assumes.
#pragma once

#include "net/queue_disc.h"
#include "queue/drop_tail.h"
#include "queue/drr.h"
#include "queue/feedback_meter.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace pels {

struct BestEffortQueueConfig {
  std::int32_t router_id = 0;
  double link_bandwidth_bps = 4e6;
  double video_weight = 0.5;
  double internet_weight = 0.5;
  SimTime feedback_interval = from_millis(30);
  std::size_t video_limit = 300;  // packets
  std::size_t internet_limit = 100;
  bool protect_base_layer = true;  // the "magic" green exemption of §6.5
  double loss_floor = -20.0;
  double loss_ceiling = 0.999;
  double feedback_rate_ewma = 1.0;  // see PelsQueueConfig::feedback_rate_ewma

  /// Throws std::invalid_argument naming the first out-of-range field
  /// (non-positive bandwidth, weights or interval, zero limits, loss bounds
  /// out of order, EWMA gain outside (0, 1]). Construction validates; call
  /// directly to fail fast before building a whole scenario.
  void validate() const;
};

class BestEffortQueue : public QueueDisc {
 public:
  BestEffortQueue(Scheduler& sched, Rng rng, BestEffortQueueConfig config);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override {
    return video_.packet_count() + internet_.packet_count();
  }
  std::int64_t byte_count() const override { return video_.byte_count() + internet_.byte_count(); }

  double video_capacity_bps() const { return meter_.capacity_bps(); }
  double current_loss() const { return meter_.loss(); }
  /// FGS-layer loss (overshoot over yellow+red demand): the random-drop
  /// probability applied to unprotected video packets.
  double current_fgs_loss() const { return meter_.fgs_loss(); }
  std::uint64_t epoch() const { return meter_.epoch(); }

  /// Per-class views. The video FIFO sees only packets that survived the
  /// random drop; counters() sees every arrival and drop.
  const ColorCounters& video_counters() const { return video_.counters(); }
  const ColorCounters& internet_counters() const { return internet_.counters(); }

 private:
  BestEffortQueueConfig cfg_;
  Rng rng_;
  DropTailQueue video_;
  DropTailQueue internet_;
  Drr2 drr_;  // class 0 = video FIFO, class 1 = Internet FIFO
  FeedbackMeter meter_;
  PeriodicTimer feedback_timer_;
};

}  // namespace pels
