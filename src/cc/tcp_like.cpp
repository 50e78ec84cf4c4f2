#include "cc/tcp_like.h"

#include <algorithm>
#include <cassert>

namespace pels {

TcpLikeSource::TcpLikeSource(Simulation& sim, Host& host, FlowId flow, NodeId dst,
                             TcpConfig config)
    : sim_(sim),
      host_(host),
      flow_(flow),
      dst_(dst),
      cfg_(config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.initial_ssthresh) {
  assert(cfg_.packet_size_bytes > 0);
  host_.register_agent(flow_, this);
}

TcpLikeSource::~TcpLikeSource() {
  if (rto_event_ != 0) sim_.scheduler().cancel(rto_event_);
  host_.unregister_agent(flow_);
}

void TcpLikeSource::start(SimTime at) {
  sim_.at(at, [this] {
    started_ = true;
    start_time_ = sim_.now();
    send_allowed();
    arm_rto();
  });
}

void TcpLikeSource::send_allowed() {
  // Window check against cumulatively-acked data; dup-acked packets are not
  // subtracted (no SACK), which slightly under-fills during recovery — an
  // acceptable Reno-ish approximation for cross traffic.
  const auto window = static_cast<std::uint64_t>(cwnd_);
  while (next_seq_ < highest_acked_ + window) transmit(next_seq_++);
}

void TcpLikeSource::transmit(std::uint64_t seq) {
  Packet pkt;
  pkt.uid = (static_cast<std::uint64_t>(flow_) << 40) | sent_;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.size_bytes = cfg_.packet_size_bytes;
  pkt.color = Color::kInternet;
  pkt.src = host_.id();
  pkt.dst = dst_;
  pkt.created_at = sim_.now();
  ++sent_;
  host_.send(std::move(pkt));
}

void TcpLikeSource::arm_rto() {
  if (rto_event_ != 0) sim_.scheduler().cancel(rto_event_);
  rto_event_ = sim_.after(cfg_.rto, [this] { on_rto(); });
}

void TcpLikeSource::on_rto() {
  rto_event_ = 0;
  if (!started_) return;
  // Coarse timeout: collapse to slow start and resend the missing segment.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = cfg_.initial_cwnd;
  dup_acks_ = 0;
  in_recovery_ = false;
  next_seq_ = std::max(next_seq_, highest_acked_);
  transmit(highest_acked_);
  ++retransmits_;
  arm_rto();
}

void TcpLikeSource::on_packet(const Packet& pkt) {
  if (!pkt.ack) return;
  on_ack(pkt.ack->acked_seq, pkt.ack->recv_marked);
}

void TcpLikeSource::on_ack(std::uint64_t ack_seq, std::uint64_t recv_marked) {
  // ECN-echo (RFC 3168 §6.1.2): the sink's cumulative marked counter
  // advancing means congestion-experienced marks arrived since the last ACK.
  // React like a fast retransmit — halve once — but at most once per window
  // of data, and never while loss recovery already halved.
  bool ece_backoff = false;
  if (recv_marked > marked_seen_) {
    marked_seen_ = recv_marked;
    if (!in_recovery_ && ack_seq >= ecn_recovery_point_) {
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      ecn_recovery_point_ = next_seq_;
      ++ecn_backoffs_;
      ece_backoff = true;
    }
  }
  if (ack_seq > highest_acked_) {
    highest_acked_ = ack_seq;
    dup_acks_ = 0;
    if (in_recovery_) {
      if (highest_acked_ >= recovery_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: the next hole is at the new cumulative point;
        // retransmit it immediately instead of stalling until the RTO.
        transmit(highest_acked_);
        ++retransmits_;
      }
    }
    if (!in_recovery_ && !ece_backoff) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;  // slow start: one packet per ACK
      } else {
        cwnd_ += 1.0 / cwnd_;  // congestion avoidance
      }
    }
    arm_rto();
    send_allowed();
    return;
  }
  // Duplicate cumulative ACK.
  ++dup_acks_;
  if (dup_acks_ == 3 && !in_recovery_) {
    in_recovery_ = true;
    recovery_point_ = next_seq_;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    transmit(highest_acked_);  // fast retransmit
    ++retransmits_;
  }
}

double TcpLikeSource::goodput_bps(SimTime now) const {
  const SimTime elapsed = now - start_time_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(highest_acked_) * cfg_.packet_size_bytes * 8.0 /
         to_seconds(elapsed);
}

TcpSink::TcpSink(Host& host, FlowId flow, NodeId src_node, TcpConfig config)
    : host_(host), flow_(flow), src_node_(src_node), cfg_(config) {
  host_.register_agent(flow_, this);
}

void TcpSink::on_packet(const Packet& pkt) {
  if (pkt.ack) return;  // we only expect data here
  ++received_;
  if (pkt.ecn_marked) ++recv_marked_;
  if (pkt.seq == cum_ack_) {
    ++cum_ack_;
    // Absorb any buffered out-of-order segments that are now in order.
    while (out_of_order_count_ > 0 && take_out_of_order(cum_ack_)) ++cum_ack_;
  } else if (pkt.seq > cum_ack_) {
    mark_out_of_order(pkt.seq);
  }
  Packet ack;
  ack.uid = pkt.uid | (1ULL << 63);
  ack.flow = flow_;
  ack.seq = pkt.seq;
  ack.size_bytes = cfg_.ack_size_bytes;
  ack.color = Color::kInternet;
  ack.src = host_.id();
  ack.dst = src_node_;
  ack.created_at = pkt.created_at;  // preserved so the source could infer RTT
  ack.ack = AckInfo{};
  ack.ack->acked_seq = cum_ack_;
  ack.ack->recv_marked = recv_marked_;
  host_.send(std::move(ack));
}

void TcpSink::mark_out_of_order(std::uint64_t seq) {
  const std::uint64_t span = seq - cum_ack_;
  if (span >= 64 * out_of_order_.size()) {
    std::size_t words = out_of_order_.empty() ? 1 : out_of_order_.size();
    while (span >= 64 * words) words *= 2;
    // Re-home the set bits: their positions depend on the bitmap width.
    std::vector<std::uint64_t> grown(words, 0);
    const std::uint64_t old_bits = 64 * out_of_order_.size();
    for (std::uint64_t s = cum_ack_ + 1; s < cum_ack_ + old_bits; ++s) {
      const std::uint64_t i = s & (old_bits - 1);
      if ((out_of_order_[i / 64] >> (i % 64)) & 1) {
        const std::uint64_t j = s & (64 * words - 1);
        grown[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
    out_of_order_.swap(grown);
  }
  const std::uint64_t i = seq & (64 * out_of_order_.size() - 1);
  std::uint64_t& word = out_of_order_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++out_of_order_count_;
  }
}

bool TcpSink::take_out_of_order(std::uint64_t seq) {
  const std::uint64_t i = seq & (64 * out_of_order_.size() - 1);
  std::uint64_t& word = out_of_order_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if ((word & bit) == 0) return false;
  word &= ~bit;
  --out_of_order_count_;
  return true;
}

}  // namespace pels
