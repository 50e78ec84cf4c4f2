// FGS decoder model: turns per-frame packet reception into decoded quality.
//
// The decoding rule is the one that drives every result in the paper: FGS
// enhancement bytes are useful only as a *consecutive prefix* from offset 0
// — bit planes are coded with strong dependencies, so the first gap renders
// the remainder of the frame's enhancement data junk (§3.1, Fig. 3). The
// base layer must arrive intact for the frame to decode at all.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"
#include "video/rd_model.h"

namespace pels {

/// What arrived for one frame.
struct FrameReception {
  std::int64_t frame_id = -1;
  std::int64_t base_bytes_expected = 0;
  std::int64_t base_bytes_received = 0;
  /// Received FGS byte ranges as (offset, length) pairs, any order.
  std::vector<std::pair<std::int32_t, std::int32_t>> fgs_chunks;
  /// Arrival time of the last decodable-class (green/yellow) byte.
  SimTime completed_at = 0;
};

/// Decoded quality of one frame.
struct FrameQuality {
  std::int64_t frame_id = -1;
  bool base_ok = false;
  std::int64_t useful_fgs_bytes = 0;    // consecutive prefix decodable
  std::int64_t received_fgs_bytes = 0;  // all FGS bytes that arrived
  double utility = 1.0;                 // useful / received (paper eq. (3) numerator)
  double psnr_db = 0.0;
  SimTime completed_at = 0;             // copied from the reception record
};

class FgsDecoder {
 public:
  /// The RdModel is borrowed and must outlive the decoder.
  explicit FgsDecoder(const RdModel& rd) : rd_(&rd) {}

  FrameQuality decode(const FrameReception& rx) const;

  /// Length of the consecutive byte prefix from offset 0 covered by the
  /// given (offset, length) chunks. Chunks may arrive unordered; overlaps
  /// (retransmission-free PELS never produces them, but the decoder is
  /// defensive) are tolerated.
  static std::int64_t useful_prefix(
      const std::vector<std::pair<std::int32_t, std::int32_t>>& chunks);

 private:
  const RdModel* rd_;
};

}  // namespace pels
