#include "video/fgs.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pels {

FramePlan plan_frame(const VideoConfig& cfg, std::int64_t frame_id, double rate_bps,
                     double gamma, bool partition, std::int64_t fgs_cap_bytes) {
  assert(gamma >= 0.0 && gamma <= 1.0);
  FramePlan plan;
  plan.frame_id = frame_id;
  plan.base_bytes = cfg.base_layer_bytes;

  const std::int64_t cap = fgs_cap_bytes >= 0 ? fgs_cap_bytes : cfg.max_fgs_bytes();
  const auto budget =
      static_cast<std::int64_t>(rate_bps / 8.0 * to_seconds(cfg.frame_period()));
  const std::int64_t x = std::clamp<std::int64_t>(budget - plan.base_bytes, 0, cap);
  if (partition) {
    plan.red_bytes = static_cast<std::int64_t>(std::llround(gamma * static_cast<double>(x)));
    plan.yellow_bytes = x - plan.red_bytes;
  } else {
    plan.yellow_bytes = x;
    plan.red_bytes = 0;
  }
  return plan;
}

FramePlan plan_frame_bytes(const VideoConfig& cfg, std::int64_t frame_id,
                           std::int64_t fgs_bytes, double gamma, bool partition) {
  assert(gamma >= 0.0 && gamma <= 1.0);
  FramePlan plan;
  plan.frame_id = frame_id;
  plan.base_bytes = cfg.base_layer_bytes;
  const std::int64_t x = std::clamp<std::int64_t>(fgs_bytes, 0, cfg.max_fgs_bytes());
  if (partition) {
    plan.red_bytes = static_cast<std::int64_t>(std::llround(gamma * static_cast<double>(x)));
    plan.yellow_bytes = x - plan.red_bytes;
  } else {
    plan.yellow_bytes = x;
    plan.red_bytes = 0;
  }
  return plan;
}

namespace {
/// Appends packets covering `bytes` of payload in `color`; FGS segments get
/// running frame offsets starting at `fgs_offset`.
void emit_segment(const VideoConfig& cfg, const FramePlan& plan, Color color,
                  std::int64_t bytes, std::int64_t fgs_offset, std::vector<Packet>& out) {
  std::int64_t sent = 0;
  while (sent < bytes) {
    const std::int64_t chunk = std::min<std::int64_t>(cfg.packet_size_bytes, bytes - sent);
    Packet pkt;
    pkt.size_bytes = static_cast<std::int32_t>(chunk);
    pkt.color = color;
    pkt.frame_id = plan.frame_id;
    pkt.frame_offset =
        color == Color::kGreen ? -1 : static_cast<std::int32_t>(fgs_offset + sent);
    out.push_back(std::move(pkt));
    sent += chunk;
  }
}
}  // namespace

std::vector<Packet> packetize(const VideoConfig& cfg, const FramePlan& plan) {
  std::vector<Packet> out;
  packetize_into(cfg, plan, out);
  return out;
}

void packetize_into(const VideoConfig& cfg, const FramePlan& plan, std::vector<Packet>& out) {
  assert(cfg.packet_size_bytes > 0);
  out.clear();
  out.reserve(static_cast<std::size_t>(plan.total_bytes() / cfg.packet_size_bytes + 3));
  emit_segment(cfg, plan, Color::kGreen, plan.base_bytes, 0, out);
  emit_segment(cfg, plan, Color::kYellow, plan.yellow_bytes, 0, out);
  emit_segment(cfg, plan, Color::kRed, plan.red_bytes, plan.yellow_bytes, out);
}

}  // namespace pels
