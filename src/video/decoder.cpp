#include "video/decoder.h"

namespace pels {

std::int64_t FgsDecoder::useful_prefix(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& chunks) {
  // Extend the covered prefix by every chunk starting inside it until a pass
  // adds nothing; a chunk past the first gap never qualifies. Equivalent to
  // sorting by offset and stopping at the first gap, without copying the
  // list: chunks arrive nearly in offset order (yellow before red, ascending
  // within each), so this settles in two passes unless packets reorder.
  std::int64_t covered = 0;
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [offset, length] : chunks) {
      const std::int64_t end = std::int64_t{offset} + length;
      if (offset <= covered && end > covered) {
        covered = end;
        grew = true;
      }
    }
  }
  return covered;
}

FrameQuality FgsDecoder::decode(const FrameReception& rx) const {
  FrameQuality q;
  q.frame_id = rx.frame_id;
  q.completed_at = rx.completed_at;
  q.base_ok = rx.base_bytes_received >= rx.base_bytes_expected;
  for (const auto& [offset, length] : rx.fgs_chunks) {
    (void)offset;
    q.received_fgs_bytes += length;
  }
  q.useful_fgs_bytes = useful_prefix(rx.fgs_chunks);
  q.utility = q.received_fgs_bytes == 0
                  ? 1.0
                  : static_cast<double>(q.useful_fgs_bytes) /
                        static_cast<double>(q.received_fgs_bytes);
  q.psnr_db = q.base_ok ? rd_->psnr(rx.frame_id, q.useful_fgs_bytes) : rd_->concealment_psnr();
  return q;
}

}  // namespace pels
