// Packet model.
//
// One Packet value represents a network packet with the headers the PELS
// framework needs: flow/sequence identity, priority colour, video frame
// position, the in-band router feedback label (router id, epoch, loss), and —
// for acknowledgements — the receiver's echoed feedback and loss statistics.
// Packets are plain values moved through queues and links.
#pragma once

#include <cstdint>
#include <string>

#include "util/box.h"
#include "util/time.h"

namespace pels {

/// Node identifier within a Topology. Dense, assigned at creation.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Flow identifier. Dense, assigned by scenarios.
using FlowId = std::int32_t;
inline constexpr FlowId kInvalidFlow = -1;

/// Priority colour of a packet (paper §4.1).
///
/// Green carries the base layer (highest priority), yellow the protected
/// lower part of the FGS layer, red the probing upper part. kInternet marks
/// non-PELS cross traffic served from the separate Internet queue; kAck marks
/// acknowledgements.
enum class Color : std::uint8_t {
  kGreen = 0,
  kYellow = 1,
  kRed = 2,
  kInternet = 3,
  kAck = 4,
};

/// Number of distinct colours (for per-colour counter arrays).
inline constexpr std::size_t kNumColors = 5;

/// True for the three PELS data colours.
constexpr bool is_pels_color(Color c) {
  return c == Color::kGreen || c == Color::kYellow || c == Color::kRed;
}

/// Human-readable colour name (for traces and tables).
const char* color_name(Color c);

/// Largest backward epoch jump attributable to in-network reordering. A
/// label can only be stale by as long as its packet sat in a queue — red-band
/// residence tops out at a few seconds, i.e. ~100 feedback intervals at
/// T = 30 ms. A same-router epoch that jumps backward by *more* than this is
/// not a reordered stale label but a restarted router counting from 1 again;
/// consumers must accept it or they stay deaf to the reborn router forever
/// (see FeedbackLabel::maybe_override and PelsSource's freshness filter).
inline constexpr std::uint64_t kEpochRestartGap = 128;

/// Same-router epoch freshness: `z` is fresh against the last-seen epoch
/// `seen` when it advances, or when it jumped backward so far that only a
/// router restart explains it.
constexpr bool epoch_is_fresh(std::uint64_t seen, std::uint64_t z) {
  return z > seen || seen > z + kEpochRestartGap;
}

/// In-band congestion feedback stamped by PELS routers into every passing
/// packet (paper §5.2): label (router ID, z, p(k)).
struct FeedbackLabel {
  std::int32_t router_id = -1;
  std::uint64_t epoch = 0;  // router-local epoch number z
  double loss = 0.0;        // p(k) = (R - C) / R; negative when underutilized
  /// Loss of the FGS (yellow+red) layer specifically: (R - C) / R_fgs. The
  /// gamma controller consumes this (eq. (4)'s "packet loss in the entire
  /// FGS layer"); the aggregate `loss` drives MKC. Queue-specific metrics
  /// per §5.2.
  double fgs_loss = 0.0;
  bool valid = false;

  /// Router override rule (see DESIGN.md §4 "feedback label override"):
  ///   * same router as the stored label: refresh (epoch, loss, fgs_loss)
  ///     when the epoch is not older — a router may revise its own report
  ///     *downward* when congestion clears. Comparing losses here would
  ///     latch the highest value a router ever reported and keep senders
  ///     reacting to congestion long after it is gone. A backward jump
  ///     larger than kEpochRestartGap is a router restart (epochs count from
  ///     1 again), not a stale label, and also refreshes.
  ///   * different router: replace only if the candidate reports strictly
  ///     larger loss (most-congested-resource, max-min semantics).
  ///   * no valid label yet: always stamp.
  void maybe_override(std::int32_t router, std::uint64_t z, double p, double p_fgs) {
    if (valid && router == router_id) {
      if (z >= epoch || epoch_is_fresh(epoch, z)) {
        epoch = z;
        loss = p;
        fgs_loss = p_fgs;
      }
      return;
    }
    if (!valid || p > loss) {
      router_id = router;
      epoch = z;
      loss = p;
      fgs_loss = p_fgs;
      valid = true;
    }
  }
};

/// Payload of an acknowledgement: echoed router feedback plus cumulative
/// per-colour receive counters the sender uses to measure FGS-layer loss.
struct AckInfo {
  FeedbackLabel echoed;           // feedback label carried by the acked packet
  std::uint64_t acked_seq = 0;    // sequence number being acknowledged
  Color data_color = Color::kGreen;  // colour of the acked data packet
  SimTime data_created_at = 0;    // send timestamp of the acked packet (RTT)
  std::uint64_t recv_green = 0;   // cumulative packets received per colour
  std::uint64_t recv_yellow = 0;
  std::uint64_t recv_red = 0;
  std::uint64_t recv_fgs_bytes = 0;  // cumulative yellow+red payload bytes
  std::uint64_t recv_marked = 0;     // cumulative ECN-marked data packets

  /// Boxed acks (see Packet::ack) churn at one allocation/free per data
  /// packet; a thread-local freelist makes that churn allocation-free in
  /// steady state. Thread-local, not global, because SweepRunner threads
  /// run disjoint simulations concurrently (share-nothing task model).
  static void* operator new(std::size_t size);
  static void operator delete(void* p) noexcept;
};

struct Packet {
  std::uint64_t uid = 0;       // unique within a simulation (assigned by sources)
  FlowId flow = kInvalidFlow;
  std::uint64_t seq = 0;       // per-flow sequence number
  std::int32_t size_bytes = 0;
  Color color = Color::kInternet;
  /// ECN congestion-experienced mark, set by marking AQMs (REM's coin-flip
  /// marking, PelsQueue's occupancy threshold). Echoed by sinks in
  /// AckInfo::recv_marked so sources can estimate the path price.
  bool ecn_marked = false;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  SimTime created_at = 0;

  // Video position: which frame this packet belongs to and its byte offset
  // within that frame's transmitted section (-1 when not video data).
  std::int64_t frame_id = -1;
  std::int32_t frame_offset = -1;

  FeedbackLabel feedback;  // stamped/updated by PELS routers en route
  /// Present only on acknowledgement packets. Boxed, not inline: AckInfo is
  /// ~100 bytes and acks are a minority of queue traffic, so data packets
  /// moving through the Link -> queue -> router chain carry one null pointer
  /// instead of an empty 112-byte std::optional slot.
  Box<AckInfo> ack;

  bool is_ack() const { return ack.has_value(); }
};

// Hot-path memory budget: every enqueue, scheduler lambda, and deque slot
// carries a Packet by value, so its size is a throughput knob
// (bench/micro_pipeline). 112 bytes = headers + 40-byte feedback label +
// 8-byte boxed ack pointer on LP64; the slack to 128 allows a couple of new
// header fields, but re-inlining a payload (the optional<AckInfo> this
// replaced was +104 bytes) must fail here, loudly, at compile time.
static_assert(sizeof(void*) != 8 || sizeof(Packet) <= 128,
              "Packet outgrew its hot-path budget; box large payloads instead "
              "of inlining them (see bench/micro_pipeline)");

}  // namespace pels
