#include "net/link.h"

#include <algorithm>
#include <cassert>

namespace pels {

// The pipeline keeps every in-flight packet in its ring and schedules only a
// bare [this] capture, which is what lets the scheduler's callback budget be
// four words and a slot 48 bytes. Pin that contract: a budget or slot growth
// must be a deliberate change to these lines, not a drift.
static_assert(kSchedulerCallbackCapacity == 32,
              "scheduler callbacks capture [this, index]-sized state: 32 bytes");
static_assert(Scheduler::slot_bytes() <= 48,
              "a Scheduler::Slot must stay within 48 bytes");

Link::Link(Simulation& sim, Node& dst, double bandwidth_bps, SimTime prop_delay,
           std::unique_ptr<QueueDisc> queue)
    : sim_(sim),
      dst_(dst),
      bandwidth_bps_(bandwidth_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)) {
  assert(bandwidth_bps_ > 0.0);
  assert(prop_delay_ >= 0);
  assert(queue_ != nullptr);
}

bool Link::send(Packet&& pkt) {
  const bool accepted = queue_->enqueue(std::move(pkt));
  if (!accepted || !up_) return accepted;
  const SimTime now = sim_.now();
  if (busy_until_ <= now) {
    // The wire went idle without an event (nothing was queued behind it when
    // the last serialization ended); settle that completion lazily and start.
    wire_settled_ = true;
    while (up_ && busy_until_ <= now && start_transmission(now)) {
    }
  }
  reschedule(now);
  return accepted;
}

bool Link::start_transmission(SimTime now) {
  // A full ring grows only for a packet that exists.
  if (ring_.full() && queue_->empty()) return false;
  InFlight& entry = ring_.back_slot();
  if (!queue_->dequeue(entry.pkt)) return false;
  // Charge the *previous* serialization window in full; the new one is
  // pro-rated by utilization() until the next start charges it here.
  busy_time_ += busy_until_ - tx_start_;
  const SimTime tx = transmission_time(entry.pkt.size_bytes, bandwidth_bps_);
  tx_start_ = now;
  busy_until_ = now + tx;
  wire_settled_ = false;
  entry.tx_end = busy_until_;
  entry.deliver_at = busy_until_ + prop_delay_;
  entry.wire_lost = false;  // the slot may hold a carrier-lost packet's flag
  ring_.commit_back();
  return true;
}

void Link::on_pipeline_event() {
  pending_event_ = 0;
  ++pipeline_events_;
  const SimTime now = sim_.now();
  while (!ring_.empty() && head_due() <= now) deliver_front();
  if (busy_until_ <= now) {
    wire_settled_ = true;
    while (up_ && busy_until_ <= now && start_transmission(now)) {
    }
  }
  reschedule(now);
}

void Link::deliver_front() {
  // Nothing pushes onto this ring while the destination handles the packet
  // (its sends go out on other links), so the dropped head's slot stays
  // intact until the packet has been passed on.
  InFlight& entry = ring_.front();
  ring_.drop_front();
  if (entry.wire_lost) {
    // Carrier dropped during serialization: link time was spent, nothing
    // arrives, and — matching the short-circuit the event-per-packet code
    // had — the corruption processes never see the packet.
    ++corrupted_;
    return;
  }
  if (!corruption_.empty() && corrupted_on_wire(entry.tx_end)) {
    ++corrupted_;
    return;
  }
  ++delivered_;
  bytes_delivered_ += static_cast<std::uint64_t>(entry.pkt.size_bytes);
  if (remote_) {
    remote_(std::move(entry.pkt), entry.deliver_at);
    return;
  }
  dst_.receive(std::move(entry.pkt));
}

void Link::reschedule(SimTime now) {
  // The next thing this link must do: deliver the ring head, or pull the
  // next queued packet when the wire frees up. One event covers both; when
  // the deadlines coincide (common at a saturated bottleneck) the handler
  // does both in a single dispatch.
  SimTime next = -1;
  if (!ring_.empty()) next = head_due();
  if (up_ && busy_until_ > now && !queue_->empty() &&
      (next < 0 || busy_until_ < next)) {
    next = busy_until_;
  }
  if (next < 0) {
    if (pending_event_ != 0) {
      sim_.scheduler().cancel(pending_event_);
      pending_event_ = 0;
    }
    return;
  }
  if (pending_event_ != 0) {
    if (pending_at_ == next) return;
    sim_.scheduler().cancel(pending_event_);
  }
  pending_at_ = next;
  pending_event_ = sim_.at(next, [this] { on_pipeline_event(); });
}

bool Link::corrupted_on_wire(SimTime tx_end) {
  // Evaluate every process (no short-circuit): stateful chains must see
  // every packet to evolve their state deterministically.
  bool lost = false;
  for (CorruptionProcess& p : corruption_) lost = p(tx_end) || lost;
  return lost;
}

void Link::set_corruption(double prob, Rng rng) {
  assert(prob >= 0.0 && prob < 1.0);
  add_corruption([prob, rng](SimTime) mutable { return rng.bernoulli(prob); });
}

void Link::add_corruption(CorruptionProcess process) {
  assert(process != nullptr);
  corruption_.push_back(std::move(process));
}

void Link::set_remote_delivery(RemoteDelivery handler) {
  // Installing moves the handoff deadline of anything on the wire from
  // deliver_at back to tx_end. For a packet still serializing that is now
  // or later, and the pending event re-arms there; a packet already
  // propagating would be handed off in its past, so none may be. Clearing
  // is always safe: the pending event fires at tx_end, finds the head not
  // yet due locally, and re-arms at deliver_at.
  assert((!handler || ring_.empty() || ring_.front().tx_end >= sim_.now()) &&
         "install remote delivery while no packet is propagating");
  remote_ = std::move(handler);
  if (remote_) reschedule(sim_.now());
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  const SimTime now = sim_.now();
  // The packet being serialized right now (if any) sits at the ring back;
  // its completion has not been settled and its window covers `now`.
  const bool on_wire = !ring_.empty() && !wire_settled_ && busy_until_ >= now;
  if (!up_) {
    if (on_wire) ring_.back().wire_lost = true;
  } else {
    // A down/up cycle completed within one serialization window leaves the
    // frame intact, exactly like the event-per-packet code (the wire check
    // happened only at serialization end).
    if (on_wire) ring_.back().wire_lost = false;
    if (busy_until_ <= now) {
      wire_settled_ = true;
      while (up_ && busy_until_ <= now && start_transmission(now)) {
      }
    }
  }
  reschedule(now);
}

void Link::set_bandwidth_bps(double bandwidth_bps) {
  assert(bandwidth_bps > 0.0);
  bandwidth_bps_ = bandwidth_bps;
}

double Link::utilization() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  // busy_time_ holds finished serializations charged at the *next* start;
  // add the current/last window pro-rated up to now.
  const SimTime live = std::min(elapsed, busy_until_) - tx_start_;
  return static_cast<double>(busy_time_ + live) / static_cast<double>(elapsed);
}

void Link::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  registry.add_probe(prefix + ".utilization", [this] { return utilization(); });
  registry.add_probe(prefix + ".in_flight_pkts",
                     [this] { return static_cast<double>(packets_in_flight()); });
  registry.add_probe(prefix + ".queue_pkts",
                     [this] { return static_cast<double>(queue_->packet_count()); });
  registry.add_probe(prefix + ".queue_bytes",
                     [this] { return static_cast<double>(queue_->byte_count()); });
  registry.add_probe(prefix + ".delivered_pkts",
                     [this] { return static_cast<double>(delivered_); });
  registry.add_probe(prefix + ".corrupted_pkts",
                     [this] { return static_cast<double>(corrupted_); });
  registry.add_probe(prefix + ".up", [this] { return up_ ? 1.0 : 0.0; });
}

}  // namespace pels
