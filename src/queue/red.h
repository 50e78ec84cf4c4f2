// RED (Random Early Detection), Floyd & Jacobson 1993.
//
// Maintains an EWMA of the instantaneous queue length; drops arriving packets
// with a probability that grows linearly between min_th and max_th, with the
// standard count-based uniformization (inter-drop gaps become roughly uniform
// instead of geometric) and optional "gentle" mode (drop probability ramps
// from max_p to 1 between max_th and 2*max_th instead of jumping to 1).
//
// Included as the classic AQM baseline the paper contrasts with (§2.2): RED
// randomizes drops but remains colour-blind, so it cannot protect the lower
// FGS sections the way the PELS queue does.
#pragma once

#include <deque>

#include "net/queue_disc.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace pels {

struct RedConfig {
  double min_th = 5.0;        // packets
  double max_th = 15.0;       // packets
  double max_p = 0.1;         // drop probability at max_th
  double weight = 0.002;      // EWMA gain w_q
  bool gentle = true;         // ramp to 1 over (max_th, 2*max_th]
  std::size_t limit_packets = 64;  // hard capacity
  // Mean packet transmission time, used to age the average while the queue
  // is idle (the "m" idle-packets estimate in the original paper).
  SimTime mean_tx_time = from_micros(1000);
};

class RedQueue : public QueueDisc {
 public:
  RedQueue(Scheduler& sched, Rng rng, RedConfig config);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override { return fifo_.size(); }
  std::int64_t byte_count() const override { return bytes_; }

  /// Current EWMA queue estimate (packets); exposed for tests.
  double average_queue() const { return avg_; }

 private:
  void update_average();
  bool early_drop_decision();

  Scheduler& sched_;
  Rng rng_;
  RedConfig cfg_;
  std::deque<Packet> fifo_;
  std::int64_t bytes_ = 0;
  double avg_ = 0.0;
  int count_ = -1;           // packets since last early drop (-1 = fresh)
  SimTime idle_since_ = 0;   // when the queue last went empty
  bool idle_ = true;
};

}  // namespace pels
