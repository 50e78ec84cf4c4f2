// PELS source agent: the sender half of the paper's contribution (§4, §5).
//
// Combines, per flow:
//  * a frame clock generating FGS video frames at the configured rate;
//  * a pluggable congestion controller — its FlowTable slot's kind (MKC by
//    default) — driven by epoch-filtered router feedback from ACK labels
//    (§5.2 freshness rule) and by receiver-measured loss and ECN marks;
//  * the gamma control law (eq. (4)) partitioning each frame's FGS prefix into
//    yellow and red segments from receiver-measured FGS loss;
//  * packet pacing: each frame's packets are spread evenly over the frame
//    period, so the instantaneous rate matches the controller output.
//
// With `partition = false` the source becomes the paper's best-effort
// comparator: same congestion control, same video, but the whole FGS prefix
// is sent unpartitioned (yellow) and gamma stays out of the loop.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/flow_table.h"
#include "net/host.h"
#include "net/tcm.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/ring_buffer.h"
#include "util/stats.h"
#include "video/fgs.h"
#include "video/frame_size.h"
#include "video/gamma_controller.h"
#include "video/rd_allocator.h"

namespace pels {

struct PelsSourceConfig {
  VideoConfig video;
  /// Gamma control law (eq. (4)). The source itself runs the law of its
  /// FlowTable; scenario builders construct that table from this config.
  GammaConfig gamma;
  /// Control interval for loss measurement + gamma updates (interval k of
  /// eq. (4)); independent of the router's feedback interval T.
  SimTime control_interval = from_millis(200);
  bool partition = true;  // false = best-effort comparator colouring
  /// DiffServ-style srTCM marking (§2.1 comparator): when set, outgoing
  /// packets are re-coloured by rate conformance instead of semantics —
  /// the meter has no idea which bytes the decoder needs. CIR defaults to
  /// tracking ~3/4 of the sending rate when cir_bps <= 0.
  bool tcm_marking = false;
  TcmConfig tcm;
  /// Per-frame coded FGS size (VBR). Null = constant video.max_fgs_bytes().
  std::shared_ptr<const FrameSizeModel> frame_sizes;
  /// R-D-aware constant-quality scaling (the paper's [5] extension): when
  /// set, each frame's FGS budget comes from a receding-horizon max-min PSNR
  /// allocation over the next 8 frames instead of a flat rate/fps split.
  /// The model is borrowed and must outlive the source.
  const RdModel* rd_scaling = nullptr;
  /// Feedback-staleness watchdog: when no *fresh* router label arrives for
  /// this long (K·T in router epochs; ACK blackout, dead or restarted
  /// bottleneck), every control tick (a) forwards a silence signal to the
  /// controller (MKC decays its rate multiplicatively) and (b) freezes
  /// gamma — eq. (4) iterated on a stale loss sample walks gamma away from
  /// any real operating point. Entering silence also forgets the per-router
  /// epoch filter, so a restarted router's labels (epochs counting from 1
  /// again) are consumed no matter how large the backward jump. 0 disables
  /// the watchdog (the seed behaviour: rate frozen at its last value).
  SimTime feedback_timeout = from_millis(600);
};

class PelsSource : public Agent {
 public:
  /// The flow's controller state (its slot's kind picks the controller),
  /// gamma and pacing EWMA live in `table` at `slot` (see cc/flow_table.h).
  /// Both are borrowed: the table must outlive the source, and whoever
  /// allocated the slot owns its lifetime.
  PelsSource(Simulation& sim, Host& host, FlowId flow, NodeId dst, FlowTable& table,
             FlowSlot slot, PelsSourceConfig config);
  ~PelsSource() override;

  /// Starts the frame and control clocks at sim time `at`.
  void start(SimTime at);
  void stop();

  void on_packet(const Packet& pkt) override;

  // --- observable state -------------------------------------------------
  double rate_bps() const { return table_.rate_bps(slot_); }
  double gamma() const { return table_.gamma(slot_); }
  double measured_loss() const { return last_measured_loss_; }
  /// Number of feedback labels consumed from `router` (fresh epochs only).
  std::uint64_t feedback_consumed(std::int32_t router) const;

  /// Router whose labels this flow consumed most often — the bottleneck that
  /// governs the flow in the max-min sense of §5.2. -1 before any feedback.
  std::int32_t governing_router() const;

  /// True while the feedback-staleness watchdog is firing (no fresh label
  /// for feedback_timeout; rate decaying, gamma frozen).
  bool feedback_silent() const { return silent_; }
  /// Control ticks spent in feedback silence so far.
  std::uint64_t silent_intervals() const { return silent_intervals_; }
  SimTime srtt() const { return srtt_; }
  FlowId flow() const { return flow_; }
  /// This flow's slot in the FlowTable it was built on.
  FlowSlot slot() const { return slot_; }

  std::uint64_t packets_sent(Color c) const { return sent_[static_cast<std::size_t>(c)]; }
  std::uint64_t fgs_bytes_sent() const { return sent_fgs_bytes_; }
  std::int64_t frames_sent() const { return next_frame_; }

  /// Trajectories sampled at every control interval.
  const TimeSeries& rate_series() const { return rate_series_; }
  const TimeSeries& gamma_series() const { return gamma_series_; }
  const TimeSeries& loss_series() const { return loss_series_; }

  const PelsSourceConfig& config() const { return cfg_; }

  /// Registers this flow's sender-side instruments under `prefix.` (see
  /// DESIGN.md "Telemetry"): its slot's controller probes (rate and the
  /// kind's state, FlowTable::register_slot_metrics), the flow's gamma
  /// probes, and the source's
  /// own loss/feedback/transmission state. Probes only — the packet and
  /// control paths are untouched.
  void register_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  void on_frame_clock();
  void on_control_clock();
  void pace_next();
  void transmit(Packet pkt);
  void handle_ack(const AckInfo& ack);
  /// Cumulative FGS bytes sent no later than `t` (from the send history).
  std::uint64_t sent_fgs_bytes_at(SimTime t) const;

  Simulation& sim_;
  Host& host_;
  FlowId flow_;
  NodeId dst_;
  FlowTable& table_;  // controller, gamma and pacing EWMA columns at slot_
  FlowSlot slot_;
  PelsSourceConfig cfg_;

  PeriodicTimer frame_timer_;
  PeriodicTimer control_timer_;
  // Sender pacing: frames enqueue packets, the pacer drains them at the
  // controller rate. With constant scaling each frame exactly fills its
  // period; with R-D scaling large frames borrow time from small ones
  // instead of bursting past the rate within their own period.
  RingBuffer<Packet> send_buffer_;
  std::vector<Packet> frame_packets_;  // packetize_into scratch, reused per frame
  EventId pace_event_ = 0;
  std::unique_ptr<SrTcmMarker> tcm_marker_;  // set iff cfg_.tcm_marking

  std::int64_t next_frame_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sent_[kNumColors] = {};
  std::uint64_t sent_fgs_bytes_ = 0;
  RingBuffer<std::pair<SimTime, std::uint64_t>> send_history_;  // (t, cum fgs bytes)

  // Last consumed epoch per router, indexed by router id (FeedbackMeter
  // rejects negative ids; ids are small and dense); 0 = none yet.
  std::vector<std::uint64_t> epoch_seen_;
  // Labels consumed per router. A map, not a flat vector: its iteration
  // order breaks governing_router() ties.
  std::unordered_map<std::int32_t, std::uint64_t> consumed_;
  double latest_router_fgs_loss_ = 0.0;  // from the freshest consumed label
  SimTime last_label_at_ = 0;   // watchdog anchor; reset at start()
  bool silent_ = false;
  std::uint64_t silent_intervals_ = 0;
  std::uint64_t recv_marked_ = 0;   // cumulative ECN marks from ACKs
  std::uint64_t recv_total_ = 0;    // cumulative data packets from ACKs
  std::uint64_t mark_anchor_ = 0;   // snapshots at the last control tick
  std::uint64_t total_anchor_ = 0;
  std::uint64_t recv_fgs_bytes_ = 0;  // latest cumulative from ACKs
  std::uint64_t meas_sent_anchor_ = 0;
  std::uint64_t meas_recv_anchor_ = 0;
  double last_measured_loss_ = 0.0;
  SimTime srtt_ = 0;

  TimeSeries rate_series_;
  TimeSeries gamma_series_;
  TimeSeries loss_series_;
};

}  // namespace pels
