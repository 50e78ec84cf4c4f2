// PELS sink agent: receiver half of a PELS (or best-effort comparator) flow.
//
// For every arriving data packet the sink
//  * records per-colour counters and one-way delay samples (Fig. 8/9 data);
//  * accumulates the packet into its frame's reception record;
//  * returns an ACK echoing the packet's feedback label, its send timestamp
//    (RTT), and cumulative receive counters (the sender's loss measurement).
//
// Frames are finalized once a few newer frames have been seen (packets of a
// frame cannot be in flight anymore by then — red-queue delays are bounded by
// the red band size) and scored through the FGS decoder + R-D model.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "net/host.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"
#include "util/stats.h"
#include "video/decoder.h"
#include "video/fgs.h"

namespace pels {

class PelsSink : public Agent {
 public:
  /// Frames older than this many frame periods behind the newest are decoded
  /// and closed. Must exceed the worst red-band queueing delay (seconds, by
  /// design — red packets wait behind the starved band), or late red chunks
  /// would re-open already-scored frames. Doubles as the playback deadline:
  /// packets later than this are treated as lost, as a real decoder would.
  static constexpr std::int64_t kFinalizeLagFrames = 40;

  /// `rd` is borrowed and must outlive the sink.
  PelsSink(Simulation& sim, Host& host, FlowId flow, NodeId src_node, VideoConfig video,
           const RdModel& rd);
  ~PelsSink() override;

  void on_packet(const Packet& pkt) override;

  /// Decodes and scores all frames still buffered (call at end of run).
  void finalize_all();

  // --- observable state -------------------------------------------------
  std::uint64_t packets_received(Color c) const { return recv_[static_cast<std::size_t>(c)]; }
  std::uint64_t fgs_bytes_received() const { return recv_fgs_bytes_; }
  /// Total non-duplicate data payload bytes delivered (all colours): the
  /// exact per-flow goodput numerator for fairness accounting.
  std::uint64_t data_bytes_received() const { return data_bytes_; }

  /// One-way delay samples per colour, seconds: the values of delay_series,
  /// copied out for quantiles (one record per packet, not two).
  SampleSet delay_samples(Color c) const;
  /// (time, delay-seconds) series per colour for trajectory plots.
  const TimeSeries& delay_series(Color c) const {
    return delay_series_[static_cast<std::size_t>(c)];
  }

  /// Qualities of finalized frames in decode order (frames whose packets
  /// were all lost do not appear; see quality_for_frames).
  const std::vector<FrameQuality>& frame_qualities() const { return qualities_; }

  /// Quality for every frame id in [first, last): missing frames (nothing
  /// arrived) score as base-layer-lost concealment.
  std::vector<FrameQuality> quality_for_frames(std::int64_t first, std::int64_t last) const;

  /// Mean utility over finalized frames that received any FGS data.
  double mean_utility() const;

  /// Duplicate data packets discarded (same uid seen again while its frame
  /// was still open). Duplicates are acked — the cumulative ACK counters are
  /// idempotent — but never double-counted into bytes or delay samples.
  std::uint64_t duplicates_ignored() const { return duplicates_ignored_; }

  /// Registers receiver-side pull probes under `prefix.` (see DESIGN.md
  /// "Telemetry"): per-colour delivery counters, FGS bytes, duplicates, and
  /// the decoded-quality aggregates (frames finalized, useful-prefix bytes,
  /// mean PSNR). Probes only — the receive path is untouched.
  void register_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  /// A frame being assembled plus the uids already absorbed into it, so a
  /// duplicated packet (link retransmission, fault injection) cannot inflate
  /// the reception record. Slots are recycled, never freed: reopening one
  /// clears its chunk and uid vectors but keeps their capacity.
  struct OpenFrame {
    std::int64_t id = -1;  // unwrapped frame id; -1 = slot free
    FrameReception rx;
    std::vector<std::uint64_t> uids;
  };

  void send_ack(const Packet& data);
  /// Ring slot of frame `unwrapped`; it holds that frame iff its id matches.
  OpenFrame& slot_for(std::int64_t unwrapped) {
    return open_frames_[static_cast<std::size_t>(unwrapped % kFinalizeLagFrames)];
  }
  /// The open frame `unwrapped`, opening it in its (free) slot if needed.
  OpenFrame& open_frame(std::int64_t unwrapped, std::int64_t raw_id);
  /// Finalizes every open frame with id <= `last`, in id order.
  void finalize_through(std::int64_t last);
  void finalize_frame(std::int64_t frame_id, const FrameReception& rx);

  Simulation& sim_;
  Host& host_;
  FlowId flow_;
  NodeId src_node_;
  VideoConfig video_;
  FgsDecoder decoder_;

  std::uint64_t recv_[kNumColors] = {};
  std::uint64_t recv_fgs_bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
  std::uint64_t recv_marked_ = 0;
  TimeSeries delay_series_[kNumColors];

  // Open frames always lie within kFinalizeLagFrames of the newest one, so a
  // ring indexed by unwrapped id modulo the lag holds them without collision.
  // A packet of an older, not yet finalized frame is scored alone in
  // late_rx_ instead (its ring slot may belong to a newer open frame).
  std::array<OpenFrame, kFinalizeLagFrames> open_frames_;
  FrameReception late_rx_;
  std::int64_t max_frame_seen_ = -1;
  std::int64_t last_finalized_ = -1;
  std::uint64_t duplicates_ignored_ = 0;
  std::vector<FrameQuality> qualities_;

  // Decode-quality aggregates, accumulated per finalized frame (not per
  // packet) so telemetry probes read them in O(1).
  std::uint64_t useful_fgs_bytes_total_ = 0;
  std::uint64_t base_ok_frames_ = 0;
  double psnr_sum_db_ = 0.0;
};

}  // namespace pels
