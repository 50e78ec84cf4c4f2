#include "video/frame_size.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pels {

LognormalFrameSize::LognormalFrameSize(std::int64_t mean_bytes, double sigma_log,
                                       std::int64_t min_bytes, std::int64_t max_bytes,
                                       std::uint64_t seed)
    : sigma_log_(sigma_log), min_bytes_(min_bytes), max_bytes_(max_bytes), seed_(seed) {
  assert(mean_bytes > 0 && sigma_log >= 0.0);
  assert(min_bytes >= 0 && max_bytes >= min_bytes);
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2): solve for mu.
  mu_log_ = std::log(static_cast<double>(mean_bytes)) - sigma_log * sigma_log / 2.0;
}

std::int64_t LognormalFrameSize::fgs_frame_bytes(std::int64_t frame_id) const {
  Rng rng(seed_, static_cast<std::uint64_t>(frame_id));
  const double v = std::exp(rng.normal(mu_log_, sigma_log_));
  return std::clamp(static_cast<std::int64_t>(std::llround(v)), min_bytes_, max_bytes_);
}

GopFrameSize::GopFrameSize(std::int64_t i_bytes, std::int64_t p_bytes, int gop_length,
                           std::uint64_t seed, double jitter)
    : i_bytes_(i_bytes),
      p_bytes_(p_bytes),
      gop_length_(gop_length),
      seed_(seed),
      jitter_(jitter) {
  assert(i_bytes_ > 0 && p_bytes_ > 0);
  assert(gop_length_ >= 1);
  assert(jitter_ >= 0.0 && jitter_ < 1.0);
}

std::int64_t GopFrameSize::fgs_frame_bytes(std::int64_t frame_id) const {
  const bool is_i = frame_id % gop_length_ == 0;
  const auto base = static_cast<double>(is_i ? i_bytes_ : p_bytes_);
  Rng rng(seed_, static_cast<std::uint64_t>(frame_id));
  const double scaled = base * (1.0 + jitter_ * (2.0 * rng.next_double() - 1.0));
  return std::max<std::int64_t>(0, std::llround(scaled));
}

std::vector<double> frame_size_pmf_packets(const FrameSizeModel& model,
                                           std::int64_t frames,
                                           std::int32_t packet_size_bytes) {
  assert(frames > 0 && packet_size_bytes > 0);
  std::vector<double> pmf;
  for (std::int64_t f = 0; f < frames; ++f) {
    const std::int64_t bytes = model.fgs_frame_bytes(f);
    const auto packets = static_cast<std::size_t>(
        (bytes + packet_size_bytes - 1) / packet_size_bytes);
    if (packets == 0) continue;  // eq. (1) is over H >= 1
    if (pmf.size() < packets) pmf.resize(packets, 0.0);
    pmf[packets - 1] += 1.0;
  }
  for (double& w : pmf) w /= static_cast<double>(frames);
  return pmf;
}

}  // namespace pels
