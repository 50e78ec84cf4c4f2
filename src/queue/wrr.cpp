#include "queue/wrr.h"

#include <cassert>
#include <cmath>

namespace pels {

WrrQueue::WrrQueue(std::vector<Child> children, Classifier classify, std::int64_t quantum_bytes)
    : children_(std::move(children)),
      classify_(std::move(classify)),
      quantum_bytes_(quantum_bytes),
      deficit_(children_.size(), 0) {
  assert(!children_.empty());
  assert(classify_ != nullptr);
  assert(quantum_bytes_ > 0);
  for (auto& c : children_) {
    assert(c.queue != nullptr);
    assert(c.weight > 0.0);
    // Surface child drops through this queue's counters/handler so callers
    // observe a single coherent drop stream.
    c.queue->set_drop_handler([this](const Packet& p) { note_drop(p); });
  }
}

bool WrrQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  const std::size_t idx = classify_(pkt);
  assert(idx < children_.size() && "classifier returned out-of-range child");
  cache_valid_ = false;
  // The child counts its own arrival and reports any drop via the forwarding
  // handler installed above.
  return children_[idx].queue->enqueue(std::move(pkt));
}

namespace {
/// Core DRR selection: advances (deficit, current) until a child can send.
/// Returns the chosen child index or npos if all children are empty.
std::size_t drr_select(const std::vector<WrrQueue::Child>& children, std::int64_t quantum,
                       std::vector<std::int64_t>& deficit, std::size_t& current) {
  constexpr auto npos = static_cast<std::size_t>(-1);
  bool any = false;
  for (const auto& c : children)
    if (!c.queue->empty()) {
      any = true;
      break;
    }
  if (!any) return npos;

  for (;;) {
    const auto& child = children[current];
    const Packet* head = child.queue->peek();
    if (head == nullptr) {
      // DRR rule: an empty child forfeits its accumulated credit.
      deficit[current] = 0;
      current = (current + 1) % children.size();
      continue;
    }
    if (deficit[current] >= head->size_bytes) {
      deficit[current] -= head->size_bytes;
      return current;
    }
    // Round the per-round credit up and floor it at 1 byte: truncating
    // quantum * weight to an integer would give a small-weight child zero
    // credit per round and starve it forever.
    const auto credit = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(quantum) * children[current].weight));
    deficit[current] += std::max<std::int64_t>(credit, 1);
    current = (current + 1) % children.size();
  }
}
}  // namespace

std::size_t WrrQueue::select() const {
  if (cache_valid_) return cached_choice_;
  // Run the selection on scratch state so committed state stays untouched
  // until a dequeue commits it. assign() reuses the scratch capacity.
  cached_deficit_.assign(deficit_.begin(), deficit_.end());
  cached_current_ = current_;
  cached_choice_ = drr_select(children_, quantum_bytes_, cached_deficit_, cached_current_);
  cached_head_ =
      cached_choice_ == npos ? nullptr : children_[cached_choice_].queue->peek();
  cache_valid_ = true;
  return cached_choice_;
}

bool WrrQueue::dequeue(Packet& out) {
  const std::size_t idx = select();
  if (idx == npos) return false;
  // Commit the post-selection DRR state computed by select().
  deficit_.swap(cached_deficit_);
  current_ = cached_current_;
  cache_valid_ = false;
  [[maybe_unused]] const bool served = children_[idx].queue->dequeue(out);
  assert(served && "DRR selected an empty child");
  counters().count_departure(out);
  return true;
}

const Packet* WrrQueue::peek() const {
  select();
  return cached_head_;
}

std::size_t WrrQueue::packet_count() const {
  std::size_t n = 0;
  for (const auto& c : children_) n += c.queue->packet_count();
  return n;
}

std::int64_t WrrQueue::byte_count() const {
  std::int64_t n = 0;
  for (const auto& c : children_) n += c.queue->byte_count();
  return n;
}

}  // namespace pels
