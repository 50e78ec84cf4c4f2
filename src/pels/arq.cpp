#include "pels/arq.h"

#include <algorithm>
#include <cassert>

namespace pels {

ArqSource::ArqSource(Simulation& sim, Host& host, FlowId flow, NodeId dst, ArqConfig config)
    : sim_(sim),
      host_(host),
      flow_(flow),
      dst_(dst),
      cfg_(config),
      frame_timer_(sim.scheduler(), config.frame_period(), [this] { on_frame_clock(); }) {
  assert(cfg_.packets_per_frame() > 0);
  host_.register_agent(flow_, this);
}

ArqSource::~ArqSource() {
  stop();
  host_.unregister_agent(flow_);
}

void ArqSource::start(SimTime at) {
  sim_.at(at, [this] {
    on_frame_clock();
    frame_timer_.start();
  });
}

void ArqSource::stop() { frame_timer_.stop(); }

void ArqSource::on_frame_clock() {
  const std::int64_t frame = next_frame_++;
  const SimTime frame_start = sim_.now();
  frame_start_[frame] = frame_start;
  const int packets = cfg_.packets_per_frame();
  const SimTime spacing = cfg_.frame_period() / packets;
  for (int i = 0; i < packets; ++i) {
    sim_.after(i * spacing,
               [this, frame, i, frame_start] { send_data(frame, i, frame_start); });
  }
  // Garbage-collect frames whose repair window is long over.
  const SimTime horizon = sim_.now() - 2 * cfg_.deadline - 2 * cfg_.frame_period();
  while (!frame_start_.empty() && frame_start_.begin()->second < horizon) {
    const std::int64_t old = frame_start_.begin()->first;
    frame_start_.erase(frame_start_.begin());
    retx_count_.erase(retx_count_.lower_bound({old, 0}),
                      retx_count_.lower_bound({old + 1, 0}));
  }
}

void ArqSource::send_data(std::int64_t frame, std::int32_t index, SimTime /*frame_start*/) {
  Packet pkt;
  pkt.uid = (static_cast<std::uint64_t>(flow_) << 40) | next_seq_;
  pkt.flow = flow_;
  pkt.seq = next_seq_++;
  pkt.size_bytes = cfg_.packet_size_bytes;
  pkt.color = Color::kYellow;  // video data; the ARQ bottleneck is colour-blind
  pkt.src = host_.id();
  pkt.dst = dst_;
  pkt.created_at = sim_.now();
  pkt.frame_id = frame;
  pkt.frame_offset = index;
  ++sent_;
  host_.send(std::move(pkt));
}

void ArqSource::on_packet(const Packet& pkt) {
  if (!pkt.ack || pkt.frame_id < 0) return;  // only NACKs expected
  auto it = frame_start_.find(pkt.frame_id);
  if (it == frame_start_.end()) return;  // frame already garbage-collected
  // Repairing past the deadline is pointless; the paper's point exactly.
  if (sim_.now() > it->second + cfg_.deadline) return;
  int& count = retx_count_[{pkt.frame_id, pkt.frame_offset}];
  if (count >= cfg_.max_retransmissions) return;
  ++count;
  ++retransmissions_;
  send_data(pkt.frame_id, pkt.frame_offset, it->second);
}

ArqSink::ArqSink(Simulation& sim, Host& host, FlowId flow, NodeId src_node, ArqConfig config)
    : sim_(sim), host_(host), flow_(flow), src_node_(src_node), cfg_(config) {
  host_.register_agent(flow_, this);
}

ArqSink::~ArqSink() { host_.unregister_agent(flow_); }

void ArqSink::on_packet(const Packet& pkt) {
  if (pkt.ack || pkt.frame_id < 0) return;
  const bool is_new_frame = frames_.count(pkt.frame_id) == 0;
  FrameState& st = frames_[pkt.frame_id];
  if (is_new_frame) {
    st.first_packet_sent = pkt.created_at;
    // Schedule repair rounds until the deadline, then score the frame.
    const std::int64_t frame = pkt.frame_id;
    const SimTime deadline = st.first_packet_sent + cfg_.deadline;
    for (SimTime t = sim_.now() + cfg_.nack_delay; t < deadline; t += cfg_.nack_delay) {
      sim_.at(t, [this, frame] { check_gaps(frame); });
    }
    // With a long one-way delay the first packet can arrive after its own
    // deadline already passed; score the frame immediately in that case
    // instead of scheduling into the past.
    sim_.at(std::max(deadline + kMillisecond, sim_.now()), [this, frame] {
      auto it = frames_.find(frame);
      if (it == frames_.end()) return;
      score_frame(it->second);
      frames_.erase(it);
    });
  } else {
    st.first_packet_sent = std::min(st.first_packet_sent, pkt.created_at);
  }
  const SimTime deadline = st.first_packet_sent + cfg_.deadline;
  if (sim_.now() <= deadline) st.on_time.insert(pkt.frame_offset);
}

void ArqSink::check_gaps(std::int64_t frame) {
  auto it = frames_.find(frame);
  if (it == frames_.end()) return;
  FrameState& st = frames_[frame];
  // Only NACK indices we should plausibly have seen: everything below the
  // highest on-time index, plus the whole frame once a full period elapsed.
  const SimTime elapsed = sim_.now() - st.first_packet_sent;
  const int packets = cfg_.packets_per_frame();
  int expect_up_to = st.on_time.empty() ? 0 : *st.on_time.rbegin();
  if (elapsed > cfg_.frame_period()) expect_up_to = packets - 1;
  for (std::int32_t i = 0; i <= expect_up_to; ++i) {
    if (st.on_time.count(i) != 0) continue;
    send_nack(frame, i);
  }
}

void ArqSink::send_nack(std::int64_t frame, std::int32_t index) {
  Packet nack;
  nack.uid = (0xA11ULL << 48) | (nacks_ & 0xFFFFFFFFFFFFULL);
  nack.flow = flow_;
  nack.size_bytes = cfg_.nack_size_bytes;
  nack.color = Color::kAck;
  nack.src = host_.id();
  nack.dst = src_node_;
  nack.created_at = sim_.now();
  nack.frame_id = frame;
  nack.frame_offset = index;
  nack.ack = AckInfo{};
  ++nacks_;
  host_.send(std::move(nack));
}

void ArqSink::score_frame(const FrameState& st) {
  const int packets = cfg_.packets_per_frame();
  on_time_fraction_.push_back(static_cast<double>(st.on_time.size()) /
                              static_cast<double>(packets));
  std::int32_t prefix = 0;
  while (prefix < packets && st.on_time.count(prefix) != 0) ++prefix;
  prefix_fraction_.push_back(static_cast<double>(prefix) / static_cast<double>(packets));
}

void ArqSink::finalize(SimTime /*now*/) {
  for (auto& [frame, st] : frames_) score_frame(st);
  frames_.clear();
}

double ArqSink::mean_prefix_fraction() const {
  RunningStats s;
  for (double v : prefix_fraction_) s.add(v);
  return s.mean();
}

}  // namespace pels
