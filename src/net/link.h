// Unidirectional link with an attached queue discipline.
//
// A Link models the output interface of a node: packets offered with send()
// enter the queue discipline (which may drop them); whenever the link is idle
// and the queue non-empty, the head packet is serialized for
// size*8/bandwidth, then delivered to the destination node after the
// propagation delay. Serialization is exclusive (one packet at a time);
// propagation is pipelined, as on a real wire.
//
// Event model (see DESIGN.md "Event model"): the link is a transmit pipeline
// with at most ONE pending scheduler event, scheduled at the earlier of the
// next serialization completion (armed only while a packet is waiting behind
// the wire) and the head in-flight packet's arrival. In-flight packets live
// in a link-owned FIFO ring — propagation delay is constant per link, so
// arrivals are FIFO and only the head ever needs a timer. Nothing on this
// path captures a packet into a scheduler callback, so the steady state
// allocates nothing and executes one event per packet instead of the two
// (serialization-done + delivery) the naive formulation costs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "net/queue_disc.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"
#include "util/cache_line.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/time.h"

namespace pels {

/// Each link starts on its own cache line: every packet writes its link,
/// and heap neighbours may belong to different domains (a pod's uplink next
/// to the core's downlink), whose threads would otherwise share a line.
class alignas(kCacheLineSize) Link : public CacheLineAllocated {
 public:
  /// Creates a link delivering to `dst`. `bandwidth_bps` > 0;
  /// `prop_delay` >= 0. The link takes ownership of its queue discipline.
  Link(Simulation& sim, Node& dst, double bandwidth_bps, SimTime prop_delay,
       std::unique_ptr<QueueDisc> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet for transmission. Returns false if the queue dropped it.
  bool send(Packet&& pkt);

  QueueDisc& queue() { return *queue_; }
  const QueueDisc& queue() const { return *queue_; }

  double bandwidth_bps() const { return bandwidth_bps_; }
  SimTime prop_delay() const { return prop_delay_; }
  /// The simulation that executes this link's events (its source node's
  /// domain), for callers that schedule link-scoped events of their own.
  Simulation& sim() const { return sim_; }

  /// Changes the link rate; takes effect at the next serialization start
  /// (the packet currently on the wire finishes at the old rate). Models
  /// capacity degradation/upgrade for failure-injection experiments; AQM
  /// disciplines sized from the link rate must be updated separately.
  void set_bandwidth_bps(double bandwidth_bps);

  /// Enables wireless-style corruption: each transmitted packet is lost on
  /// the wire with probability `prob`, independent of queue state. This is
  /// *non-congestive* loss — it happens after the queue, consumes link time,
  /// and signals nothing to AQMs — the failure mode that confuses loss-based
  /// congestion control (bench/ablation_wireless).
  void set_corruption(double prob, Rng rng);

  /// Per-packet corruption decision, consulted once per serialized packet
  /// with that packet's serialization-end timestamp.
  using CorruptionProcess = std::function<bool(SimTime now)>;

  /// Adds a corruption process alongside any existing ones (a packet is lost
  /// when *any* process says so). Every process sees every packet, so
  /// stateful models (Gilbert–Elliott chains, blackout windows — see
  /// src/fault/loss_process.h) evolve deterministically regardless of what
  /// the other processes decide. Install processes before traffic flows: the
  /// pipeline evaluates corruption when a packet leaves the wire, so a
  /// process added mid-run first sees the packets serialized after the call.
  void add_corruption(CorruptionProcess process);

  std::uint64_t packets_corrupted() const { return corrupted_; }

  /// Cross-domain delivery hook (parallel DES, see exp/domain_runner.h).
  /// When set, this link is a *boundary* link: a packet leaving the wire is
  /// handed to `handler` at serialization end together with its computed
  /// arrival time (tx_end + prop_delay) instead of being held locally for
  /// propagation — the domain runner re-schedules the arrival in the
  /// destination domain's scheduler at the start of its next window. Carrier
  /// loss and corruption are still evaluated here, at wire exit, exactly as
  /// for local delivery, and packets_delivered()/bytes_delivered() count at
  /// handoff (once on the wire past corruption, nothing can stop the
  /// arrival). Install while no packet is propagating on this link: before
  /// traffic flows, or right after a runner cleared the hook (packets still
  /// serializing are handed off at their wire exit). Pass nullptr to
  /// restore local delivery.
  using RemoteDelivery = std::function<void(Packet&&, SimTime deliver_at)>;
  void set_remote_delivery(RemoteDelivery handler);

  /// Takes the link down / brings it back up (fault injection). While down,
  /// nothing serializes: the queue keeps accepting (and eventually
  /// tail-dropping) packets, and the packet on the wire at down-time is
  /// lost — carrier loss does not wait for frame boundaries.
  void set_up(bool up);
  bool is_up() const { return up_; }

  /// Fraction of elapsed time the link spent transmitting since creation.
  /// A serialization in progress is pro-rated up to now — it never charges
  /// wire time that has not been spent yet.
  double utilization() const;

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Pipeline events executed so far (diagnostics: the coalesced event model
  /// fires at most one of these per packet in steady state).
  std::uint64_t pipeline_events() const { return pipeline_events_; }

  /// In-flight packets (serializing + propagating). The pending scheduler
  /// footprint stays one event no matter how large this gets.
  std::size_t packets_in_flight() const { return ring_.size(); }

  /// Pre-sizes the in-flight ring (e.g. from a topology-level estimate of
  /// bandwidth-delay product) so steady state never grows it mid-run.
  void reserve_in_flight(std::size_t packets) { ring_.reserve(packets); }

  /// Registers pull probes under `prefix.` (utilization, on-wire ring depth,
  /// queue backlog, cumulative delivery/corruption counters, up/down state).
  /// Probes only — the packet pipeline itself is untouched by telemetry.
  void register_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  /// One packet on the wire: serializing until `tx_end`, arriving at
  /// `deliver_at` = tx_end + prop_delay (constant per link, so ring order is
  /// delivery order). `wire_lost` records a carrier drop mid-serialization.
  /// Ring slots are reused in place: the queue dequeues straight into the
  /// next slot, and every field is rewritten when a slot is refilled.
  struct InFlight {
    Packet pkt;
    SimTime tx_end = 0;
    SimTime deliver_at = 0;
    bool wire_lost = false;
  };

  void on_pipeline_event();
  /// Starts serializing the queue head at `now`, dequeuing it straight into
  /// the ring's next slot; false if the queue is empty.
  bool start_transmission(SimTime now);
  /// When the ring head must be resolved: local links wait out propagation
  /// (deliver_at); boundary links hand off at wire exit (tx_end) so the
  /// packet reaches its mailbox within the lookahead window that produced
  /// it. Caller guarantees a non-empty ring.
  SimTime head_due() const {
    return remote_ ? ring_.front().tx_end : ring_.front().deliver_at;
  }
  /// Pops and resolves the ring head: corruption (evaluated with the recorded
  /// serialization-end time, preserving order and timestamps) or delivery,
  /// which passes the packet on from its ring slot.
  void deliver_front();
  /// Re-arms the single pending event at the earliest due deadline.
  void reschedule(SimTime now);
  bool corrupted_on_wire(SimTime tx_end);

  Simulation& sim_;
  Node& dst_;
  double bandwidth_bps_;
  SimTime prop_delay_;
  std::unique_ptr<QueueDisc> queue_;
  bool up_ = true;

  // Wire state. The wire is busy while now < busy_until_; completion is
  // processed lazily (no event when nothing is queued behind the wire).
  SimTime tx_start_ = 0;      // current/last serialization start
  SimTime busy_until_ = 0;    // current/last serialization end
  bool wire_settled_ = true;  // completion at busy_until_ already processed
  SimTime busy_time_ = 0;     // serialization time of *finished* packets

  // In-flight FIFO ring (power-of-two capacity, grown on demand; steady
  // state never allocates).
  RingBuffer<InFlight> ring_;

  // The single pending scheduler event (0 = none) and its deadline.
  EventId pending_event_ = 0;
  SimTime pending_at_ = 0;

  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t pipeline_events_ = 0;
  std::vector<CorruptionProcess> corruption_;
  std::uint64_t corrupted_ = 0;
  RemoteDelivery remote_;  // set iff this is a cross-domain boundary link
};

}  // namespace pels
