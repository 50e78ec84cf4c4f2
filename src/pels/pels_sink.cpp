#include "pels/pels_sink.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace pels {

namespace {
constexpr std::int32_t kAckBytes = 40;

/// Resets a recycled reception record for a new frame, keeping the chunk
/// vector's capacity.
void start_reception(FrameReception& rx, std::int64_t frame_id, std::int64_t base_bytes) {
  rx.frame_id = frame_id;
  rx.base_bytes_expected = base_bytes;
  rx.base_bytes_received = 0;
  rx.fgs_chunks.clear();
  rx.completed_at = 0;
}
}  // namespace

PelsSink::PelsSink(Simulation& sim, Host& host, FlowId flow, NodeId src_node,
                   VideoConfig video, const RdModel& rd)
    : sim_(sim), host_(host), flow_(flow), src_node_(src_node), video_(video), decoder_(rd) {
  host_.register_agent(flow_, this);
}

PelsSink::~PelsSink() { host_.unregister_agent(flow_); }

void PelsSink::on_packet(const Packet& pkt) {
  if (pkt.ack) return;  // sinks only expect data

  // The sequence loops at the source; map the raw frame id to the
  // unwrapped frame nearest the newest one seen, so frame 0 of the second
  // pass does not merge into frame 0 of the first.
  std::int64_t unwrapped = -1;
  if (pkt.frame_id >= 0) {
    unwrapped = pkt.frame_id;
    if (max_frame_seen_ >= 0) {
      const std::int64_t k = (max_frame_seen_ - pkt.frame_id +
                              video_.total_frames / 2) /
                             video_.total_frames;
      unwrapped += std::max<std::int64_t>(0, k) * video_.total_frames;
    }
    // Duplicate delivery (fault injection, misbehaving links): a uid the
    // open frame has already absorbed is acked — the cumulative ACK counters
    // are idempotent for the sender — but contributes nothing to counters,
    // delay samples, or the reception record.
    if (unwrapped > last_finalized_) {
      const OpenFrame& open = slot_for(unwrapped);
      if (open.id == unwrapped &&
          std::find(open.uids.begin(), open.uids.end(), pkt.uid) != open.uids.end()) {
        ++duplicates_ignored_;
        send_ack(pkt);
        return;
      }
    }
  }

  const auto c = static_cast<std::size_t>(pkt.color);
  ++recv_[c];
  data_bytes_ += static_cast<std::uint64_t>(pkt.size_bytes);
  if (pkt.ecn_marked) ++recv_marked_;
  delay_series_[c].add(sim_.now(), to_seconds(sim_.now() - pkt.created_at));

  if (pkt.frame_id >= 0 && unwrapped > last_finalized_) {  // else: past its deadline — lost
    if (pkt.color == Color::kYellow || pkt.color == Color::kRed) {
      recv_fgs_bytes_ += static_cast<std::uint64_t>(pkt.size_bytes);
    }
    // A newer frame pushes older ones past their deadline: finalize those
    // first, which also frees this frame's ring slot. A packet of a frame
    // already past the deadline of the newest one is scored on its own.
    const bool late = unwrapped <= max_frame_seen_ - kFinalizeLagFrames;
    if (unwrapped > max_frame_seen_) {
      finalize_through(unwrapped - kFinalizeLagFrames);
      max_frame_seen_ = unwrapped;
    }
    FrameReception* rx = &late_rx_;
    if (late) {
      start_reception(late_rx_, pkt.frame_id, video_.base_layer_bytes);
    } else {
      OpenFrame& frame = open_frame(unwrapped, pkt.frame_id);
      frame.uids.push_back(pkt.uid);
      rx = &frame.rx;
    }
    // Classify by frame position, not colour: markers (TCM) may recolour
    // packets, but a negative frame offset always means base-layer data.
    if (pkt.frame_offset < 0) {
      rx->base_bytes_received += pkt.size_bytes;
      rx->completed_at = std::max(rx->completed_at, sim_.now());
    } else {
      rx->fgs_chunks.emplace_back(pkt.frame_offset, pkt.size_bytes);
      if (pkt.color != Color::kRed)
        rx->completed_at = std::max(rx->completed_at, sim_.now());
    }
    if (late) finalize_frame(unwrapped, late_rx_);
  }
  send_ack(pkt);
}

PelsSink::OpenFrame& PelsSink::open_frame(std::int64_t unwrapped, std::int64_t raw_id) {
  OpenFrame& slot = slot_for(unwrapped);
  if (slot.id == unwrapped) return slot;
  assert(slot.id < 0 && "ring slot still holds an unfinalized frame");
  slot.id = unwrapped;
  start_reception(slot.rx, raw_id, video_.base_layer_bytes);
  slot.uids.clear();
  return slot;
}

void PelsSink::finalize_through(std::int64_t last) {
  // Open frames lie in (max_frame_seen_ - kFinalizeLagFrames, max_frame_seen_]
  // and above last_finalized_, so this visits at most one lap of the ring.
  const std::int64_t first =
      std::max(last_finalized_ + 1, max_frame_seen_ - kFinalizeLagFrames + 1);
  last = std::min(last, max_frame_seen_);
  for (std::int64_t id = first; id <= last; ++id) {
    OpenFrame& slot = slot_for(id);
    if (slot.id != id) continue;
    finalize_frame(id, slot.rx);
    slot.id = -1;
  }
}

void PelsSink::finalize_frame(std::int64_t unwrapped_id, const FrameReception& rx) {
  last_finalized_ = std::max(last_finalized_, unwrapped_id);
  qualities_.push_back(decoder_.decode(rx));
  const FrameQuality& q = qualities_.back();
  useful_fgs_bytes_total_ += static_cast<std::uint64_t>(q.useful_fgs_bytes);
  if (q.base_ok) ++base_ok_frames_;
  psnr_sum_db_ += q.psnr_db;
}

void PelsSink::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  struct BandProbe {
    Color color;
    const char* pkts;
  };
  static constexpr BandProbe kBands[] = {
      {Color::kGreen, ".green_pkts"},
      {Color::kYellow, ".yellow_pkts"},
      {Color::kRed, ".red_pkts"},
  };
  for (const BandProbe& b : kBands) {
    registry.add_probe(prefix + b.pkts, [this, c = b.color] {
      return static_cast<double>(packets_received(c));
    });
  }
  registry.add_probe(prefix + ".fgs_bytes",
                     [this] { return static_cast<double>(recv_fgs_bytes_); });
  registry.add_probe(prefix + ".useful_fgs_bytes",
                     [this] { return static_cast<double>(useful_fgs_bytes_total_); });
  registry.add_probe(prefix + ".frames_finalized",
                     [this] { return static_cast<double>(qualities_.size()); });
  registry.add_probe(prefix + ".base_ok_frames",
                     [this] { return static_cast<double>(base_ok_frames_); });
  registry.add_probe(prefix + ".mean_psnr_db", [this] {
    return qualities_.empty() ? 0.0 : psnr_sum_db_ / static_cast<double>(qualities_.size());
  });
  registry.add_probe(prefix + ".duplicates",
                     [this] { return static_cast<double>(duplicates_ignored_); });
}

void PelsSink::finalize_all() { finalize_through(max_frame_seen_); }

void PelsSink::send_ack(const Packet& data) {
  Packet ack;
  ack.uid = data.uid | (1ULL << 63);
  ack.flow = flow_;
  ack.seq = data.seq;
  ack.size_bytes = kAckBytes;
  ack.color = Color::kAck;
  ack.src = host_.id();
  ack.dst = src_node_;
  ack.created_at = sim_.now();
  AckInfo info;
  info.echoed = data.feedback;
  info.acked_seq = data.seq;
  info.data_color = data.color;
  info.data_created_at = data.created_at;
  info.recv_green = recv_[static_cast<std::size_t>(Color::kGreen)];
  info.recv_yellow = recv_[static_cast<std::size_t>(Color::kYellow)];
  info.recv_red = recv_[static_cast<std::size_t>(Color::kRed)];
  info.recv_fgs_bytes = recv_fgs_bytes_;
  info.recv_marked = recv_marked_;
  ack.ack = std::move(info);
  host_.send(std::move(ack));
}

SampleSet PelsSink::delay_samples(Color c) const {
  SampleSet out;
  for (const TimeSeries::Point& p : delay_series(c).points()) out.add(p.value);
  return out;
}

std::vector<FrameQuality> PelsSink::quality_for_frames(std::int64_t first,
                                                       std::int64_t last) const {
  // Valid for runs no longer than one pass of the coded sequence (frame ids
  // unique); with looping sources the latest occurrence of an id wins.
  std::map<std::int64_t, const FrameQuality*> by_id;
  for (const auto& q : qualities_) by_id[q.frame_id] = &q;
  std::vector<FrameQuality> out;
  out.reserve(static_cast<std::size_t>(std::max<std::int64_t>(0, last - first)));
  for (std::int64_t f = first; f < last; ++f) {
    const std::int64_t want = f % video_.total_frames;
    if (auto it = by_id.find(want); it != by_id.end()) {
      out.push_back(*it->second);
    } else {
      // Nothing of this frame arrived: concealment-quality placeholder.
      FrameQuality q;
      q.frame_id = want;
      q.base_ok = false;
      q.psnr_db = decoder_.decode(FrameReception{want, 1, 0, {}}).psnr_db;
      out.push_back(q);
    }
  }
  return out;
}

double PelsSink::mean_utility() const {
  RunningStats s;
  for (const auto& q : qualities_)
    if (q.received_fgs_bytes > 0) s.add(q.utility);
  return s.mean();
}

}  // namespace pels
