// TCP-Reno-like window-based source and sink, used as Internet cross traffic.
//
// Implements enough of Reno/NewReno to load a queue realistically: slow
// start, congestion avoidance, fast retransmit on three duplicate ACKs with
// window halving, NewReno partial-ACK hole retransmission, and a coarse
// retransmission timeout that resets to slow start.
// Packets carry Color::kInternet so PELS routers steer them into the
// Internet queue behind WRR (paper §6.1 allocates them 50% of the
// bottleneck). SACK, delayed ACKs, and Nagle are intentionally omitted — the
// paper's results do not depend on them, only on the queue being kept busy.
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.h"
#include "sim/simulation.h"
#include "util/time.h"

namespace pels {

struct TcpConfig {
  std::int32_t packet_size_bytes = 1000;
  double initial_cwnd = 2.0;       // packets
  double initial_ssthresh = 64.0;  // packets
  SimTime rto = from_millis(1000);
  std::int32_t ack_size_bytes = 40;
};

/// Greedy (always-backlogged) TCP sender.
class TcpLikeSource : public Agent {
 public:
  TcpLikeSource(Simulation& sim, Host& host, FlowId flow, NodeId dst, TcpConfig config = {});
  ~TcpLikeSource() override;

  /// Begins transmission at sim time `at`.
  void start(SimTime at);

  void on_packet(const Packet& pkt) override;

  double cwnd() const { return cwnd_; }
  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t highest_acked() const { return highest_acked_; }
  /// ECN window reductions taken (RFC 3168 ECE reaction, at most one per
  /// window of data) — marks echoed by the sink cut cwnd without a drop.
  std::uint64_t ecn_backoffs() const { return ecn_backoffs_; }

  /// Goodput in bits/s between start and `now` (cumulatively acked data).
  double goodput_bps(SimTime now) const;

 private:
  void send_allowed();
  void transmit(std::uint64_t seq);
  void arm_rto();
  void on_rto();
  void on_ack(std::uint64_t ack_seq, std::uint64_t recv_marked);

  Simulation& sim_;
  Host& host_;
  FlowId flow_;
  NodeId dst_;
  TcpConfig cfg_;

  bool started_ = false;
  SimTime start_time_ = 0;
  std::uint64_t next_seq_ = 0;      // next new sequence to send
  std::uint64_t highest_acked_ = 0; // cumulative: all seq < this are acked
  double cwnd_;
  double ssthresh_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  EventId rto_event_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t marked_seen_ = 0;        // highest echoed recv_marked counter
  std::uint64_t ecn_recovery_point_ = 0; // next ECE reaction allowed past here
  std::uint64_t ecn_backoffs_ = 0;
};

/// Cumulative-ACK receiver.
class TcpSink : public Agent {
 public:
  TcpSink(Host& host, FlowId flow, NodeId src_node, TcpConfig config = {});

  void on_packet(const Packet& pkt) override;

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t cumulative_ack() const { return cum_ack_; }

 private:
  /// Records `seq` (> cum_ack_) as received out of order.
  void mark_out_of_order(std::uint64_t seq);
  /// Clears `seq`'s out-of-order bit; returns whether it was set.
  bool take_out_of_order(std::uint64_t seq);

  Host& host_;
  FlowId flow_;
  NodeId src_node_;
  TcpConfig cfg_;
  std::uint64_t cum_ack_ = 0;  // next expected in-order sequence
  // Segments received above cum_ack_, as a circular bitmap: seq s lives at
  // bit s mod (64 * size()) for s in (cum_ack_, cum_ack_ + 64 * size()). The
  // word count is a power of two that grows to the widest reorder span seen
  // and never shrinks, so steady-state reordering allocates nothing.
  std::vector<std::uint64_t> out_of_order_;
  std::size_t out_of_order_count_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t recv_marked_ = 0;  // ECN-marked data packets; echoed on every ACK
};

}  // namespace pels
