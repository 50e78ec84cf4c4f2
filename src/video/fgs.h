// MPEG-4 FGS stream model and packetizer.
//
// Models the structure the paper uses (§2.3, §6.1): video coded as a base
// layer plus one fine-granular-scalability enhancement layer per frame. The
// FGS layer is coded at a large fixed budget R_max and the server transmits
// an arbitrary prefix x_i of each FGS frame, split into a yellow lower
// segment of (1-gamma)*x_i bytes and a red upper segment of gamma*x_i bytes
// (Fig. 4 right). The base layer is always green.
//
// Default numbers follow §6.1's MPEG-4 coded CIF Foreman: 63,000 bytes per
// frame in 126 packets of 500 bytes. The base-layer rate defaults to
// 128 kb/s — the paper's "rate of the base layer" used as the initial MKC
// rate — which at 10 frames/s is 1,600 bytes per frame (the paper's "21
// green packets" describes the full-rate encoding's base share; see
// DESIGN.md substitution notes).
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/time.h"

namespace pels {

struct VideoConfig {
  double fps = 10.0;
  std::int32_t packet_size_bytes = 500;
  std::int64_t max_frame_bytes = 63'000;   // base + full FGS (R_max per frame)
  std::int64_t base_layer_bytes = 1'600;   // per frame (128 kb/s at 10 fps)
  std::int64_t total_frames = 400;         // CIF Foreman length

  SimTime frame_period() const { return from_seconds(1.0 / fps); }
  std::int64_t max_fgs_bytes() const { return max_frame_bytes - base_layer_bytes; }
  double base_layer_rate_bps() const {
    return static_cast<double>(base_layer_bytes) * 8.0 * fps;
  }
};

/// One frame's transmission plan: how many FGS bytes to send and where the
/// yellow/red split falls.
struct FramePlan {
  std::int64_t frame_id = 0;
  std::int64_t base_bytes = 0;
  std::int64_t yellow_bytes = 0;  // lower FGS segment (1-gamma)*x
  std::int64_t red_bytes = 0;     // upper FGS segment gamma*x

  std::int64_t fgs_bytes() const { return yellow_bytes + red_bytes; }
  std::int64_t total_bytes() const { return base_bytes + fgs_bytes(); }
};

/// Computes a frame plan from the congestion-controlled rate.
///
/// `rate_bps` is the sending budget; the base layer is always fully included
/// (its loss means no meaningful streaming, §4.2), the remaining budget fills
/// the FGS prefix x_i, capped at the coded FGS size, and gamma splits x_i
/// into yellow and red. When `partition` is false the whole FGS prefix is
/// yellow (the best-effort comparator sends unpartitioned enhancement data).
/// `fgs_cap_bytes` overrides the coded FGS size of this frame (VBR sources:
/// the FrameSizeModel's R_max,i); pass -1 for the config's constant cap.
FramePlan plan_frame(const VideoConfig& cfg, std::int64_t frame_id, double rate_bps,
                     double gamma, bool partition = true,
                     std::int64_t fgs_cap_bytes = -1);

/// Builds a plan from an explicit FGS byte count (R-D-aware scaling chooses
/// x_i itself instead of deriving it from the rate); gamma splits as usual.
FramePlan plan_frame_bytes(const VideoConfig& cfg, std::int64_t frame_id,
                           std::int64_t fgs_bytes, double gamma, bool partition = true);

/// Splits a frame plan into packets.
///
/// Packets are at most `packet_size_bytes`; colour segments do not share
/// packets (a packet is entirely green, yellow, or red — routers drop whole
/// packets, so mixing colours would couple the segments' fates). FGS packets
/// carry `frame_offset` = byte offset of the packet within the FGS prefix;
/// base packets carry frame_offset = -1. Sequence numbers, source/destination
/// and timestamps are filled by the caller.
std::vector<Packet> packetize(const VideoConfig& cfg, const FramePlan& plan);

/// packetize() into a caller-owned buffer: `out` is cleared and refilled, so
/// a buffer reused frame after frame stops allocating once it has held the
/// largest frame.
void packetize_into(const VideoConfig& cfg, const FramePlan& plan, std::vector<Packet>& out);

}  // namespace pels
