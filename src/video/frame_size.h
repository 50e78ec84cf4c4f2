// Frame-size models: the coded FGS size R_max,i of each enhancement frame.
//
// The paper's analysis covers both constant frame sizes (eq. (2)) and
// arbitrary i.i.d. frame-size distributions {q_k} (eq. (1), Lemma 1): "the
// exact distribution of {H_j} depends on the frame rate, variation in scene
// complexity, and the bitrate of the sequence". These models supply that
// variation for the VBR experiments: a lognormal model (the classic fit for
// compressed-frame sizes) and a GOP-structured model (periodic large I-frames
// over smaller P/B frames). The constant setting of eq. (2) needs no model:
// a source without one codes every frame at video.max_fgs_bytes().
//
// All models are deterministic functions of (seed, frame index): the same
// frame always has the same coded size, across runs and across the sender
// and any offline analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace pels {

class FrameSizeModel {
 public:
  virtual ~FrameSizeModel() = default;

  /// Coded FGS-layer size of frame `frame_id` in bytes (>= 0).
  virtual std::int64_t fgs_frame_bytes(std::int64_t frame_id) const = 0;

  /// Model name for traces and tables.
  virtual const char* name() const = 0;
};

/// Lognormal i.i.d. frame sizes, clamped to [min, max]; mean is the target
/// mean *before* clamping.
class LognormalFrameSize : public FrameSizeModel {
 public:
  LognormalFrameSize(std::int64_t mean_bytes, double sigma_log, std::int64_t min_bytes,
                     std::int64_t max_bytes, std::uint64_t seed);
  std::int64_t fgs_frame_bytes(std::int64_t frame_id) const override;
  const char* name() const override { return "lognormal"; }

 private:
  double mu_log_;
  double sigma_log_;
  std::int64_t min_bytes_;
  std::int64_t max_bytes_;
  std::uint64_t seed_;
};

/// GOP-patterned sizes: frame 0 of each `gop_length` window is an I frame of
/// `i_bytes`; the rest are P frames of `p_bytes`, both with mild
/// deterministic per-frame jitter.
class GopFrameSize : public FrameSizeModel {
 public:
  GopFrameSize(std::int64_t i_bytes, std::int64_t p_bytes, int gop_length,
               std::uint64_t seed, double jitter = 0.1);
  std::int64_t fgs_frame_bytes(std::int64_t frame_id) const override;
  const char* name() const override { return "gop"; }

 private:
  std::int64_t i_bytes_;
  std::int64_t p_bytes_;
  int gop_length_;
  std::uint64_t seed_;
  double jitter_;
};

/// Empirical PMF of frame sizes *in packets* over frames [0, frames), for
/// feeding eq. (1) (expected_useful_packets_pmf): pmf[k-1] = P(H = k).
std::vector<double> frame_size_pmf_packets(const FrameSizeModel& model,
                                           std::int64_t frames,
                                           std::int32_t packet_size_bytes);

}  // namespace pels
