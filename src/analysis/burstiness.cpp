#include "analysis/burstiness.h"

#include <algorithm>

namespace pels {

void BurstAnalyzer::add(bool lost) {
  ++packets_;
  if (lost) {
    ++lost_;
    ++open_burst_;
  } else if (open_burst_ > 0) {
    bursts_.push_back(open_burst_);
    open_burst_ = 0;
  }
}

void BurstAnalyzer::finish() {
  if (open_burst_ > 0) {
    bursts_.push_back(open_burst_);
    open_burst_ = 0;
  }
}

double BurstAnalyzer::loss_rate() const {
  return packets_ == 0 ? 0.0 : static_cast<double>(lost_) / static_cast<double>(packets_);
}

double BurstAnalyzer::mean_burst_length() const {
  if (bursts_.empty()) return 0.0;
  std::int64_t total = 0;
  for (auto b : bursts_) total += b;
  return static_cast<double>(total) / static_cast<double>(bursts_.size());
}

double BurstAnalyzer::max_burst_length() const {
  return bursts_.empty() ? 0.0
                         : static_cast<double>(*std::max_element(bursts_.begin(), bursts_.end()));
}

double BurstAnalyzer::ccdf(std::int64_t k) const {
  if (bursts_.empty()) return 0.0;
  std::int64_t above = 0;
  for (auto b : bursts_)
    if (b > k) ++above;
  return static_cast<double>(above) / static_cast<double>(bursts_.size());
}

}  // namespace pels
