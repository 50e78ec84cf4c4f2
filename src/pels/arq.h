// ARQ (retransmission-based) streaming comparator.
//
// Paper §1 argues against retransmission-based repair for video: "all video
// frames have strict decoding deadlines. During heavy congestion (especially
// along paths with large buffers), the RTT is often so high that even the
// retransmitted packets are dropped in the same congested queues. As a
// result, the receiver ... must ask for multiple retransmissions of each
// lost packet, which often causes the retransmitted packets to miss their
// decoding deadlines."
//
// These agents implement exactly that strawman so the claim can be measured:
// a fixed-rate video source with NACK-driven selective retransmission, and a
// sink that scores each frame by the consecutive prefix of packets that
// arrived *before the frame's decoding deadline*. Run them over a shared
// drop-tail bottleneck whose buffer size sets the bufferbloat level
// (bench/ablation_retransmission).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/host.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/stats.h"
#include "util/time.h"

namespace pels {

struct ArqConfig {
  double rate_bps = 1e6;           // fixed sending rate (no congestion control:
                                   // the experiment isolates the repair loop)
  double fps = 10.0;
  std::int32_t packet_size_bytes = 500;
  SimTime deadline = from_millis(400);  // decode deadline after frame send start
  int max_retransmissions = 5;          // per packet
  SimTime nack_delay = from_millis(20);  // gap-detection delay at the sink
  std::int32_t nack_size_bytes = 40;

  SimTime frame_period() const { return from_seconds(1.0 / fps); }
  int packets_per_frame() const {
    return static_cast<int>(rate_bps / 8.0 / fps /
                            static_cast<double>(packet_size_bytes));
  }
};

/// Fixed-rate video source with NACK-driven selective retransmission.
class ArqSource : public Agent {
 public:
  ArqSource(Simulation& sim, Host& host, FlowId flow, NodeId dst, ArqConfig config);
  ~ArqSource() override;

  void start(SimTime at);
  void stop();

  void on_packet(const Packet& pkt) override;  // NACKs arrive here

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  void on_frame_clock();
  void send_data(std::int64_t frame, std::int32_t index, SimTime frame_start);

  Simulation& sim_;
  Host& host_;
  FlowId flow_;
  NodeId dst_;
  ArqConfig cfg_;
  PeriodicTimer frame_timer_;
  std::int64_t next_frame_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  // Send time of each live frame (for deadline give-up) and per-packet
  // retransmission counts, keyed by (frame, packet index).
  std::map<std::int64_t, SimTime> frame_start_;
  std::map<std::pair<std::int64_t, std::int32_t>, int> retx_count_;
};

/// Deadline-scoring sink with gap-driven NACKs.
class ArqSink : public Agent {
 public:
  ArqSink(Simulation& sim, Host& host, FlowId flow, NodeId src_node, ArqConfig config);
  ~ArqSink() override;

  void on_packet(const Packet& pkt) override;

  /// Scores all frames whose deadline has passed (call at end of run).
  void finalize(SimTime now);

  /// Per-frame fraction of packets that arrived before the deadline, and the
  /// consecutive prefix fraction (what an FGS decoder could use).
  const std::vector<double>& on_time_fraction() const { return on_time_fraction_; }
  const std::vector<double>& prefix_fraction() const { return prefix_fraction_; }
  double mean_prefix_fraction() const;

  std::uint64_t nacks_sent() const { return nacks_; }

 private:
  struct FrameState {
    SimTime first_packet_sent = 0;  // created_at of the earliest packet seen
    std::set<std::int32_t> on_time;  // packet indices arrived before deadline
    std::set<std::int32_t> nacked;
  };

  void check_gaps(std::int64_t frame);
  void score_frame(const FrameState& st);
  void send_nack(std::int64_t frame, std::int32_t index);

  Simulation& sim_;
  Host& host_;
  FlowId flow_;
  NodeId src_node_;
  ArqConfig cfg_;
  std::map<std::int64_t, FrameState> frames_;
  std::vector<double> on_time_fraction_;
  std::vector<double> prefix_fraction_;
  std::uint64_t nacks_ = 0;
};

}  // namespace pels
