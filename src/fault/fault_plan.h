// Deterministic, schedulable fault injection.
//
// A FaultPlan is pure data: a schedule of link flaps, bandwidth brown-outs,
// router restarts, ACK-path blackout windows, and an optional Gilbert–Elliott
// burst-corruption model. Scenarios embed a plan in their config and apply it
// through a FaultInjector at construction, so the full failure schedule is
// part of the experiment description — two runs with the same seed and the
// same plan replay bit-for-bit (tested in robustness_test).
//
// The injector drives *any* Link: flaps use Link::set_up, brown-outs scale
// Link bandwidth for the window (and, given the link's PelsQueue, resize its
// capacity share with PelsQueue::set_link_bandwidth), restarts call
// PelsQueue::restart() (FeedbackMeter epoch/counter reset — the failure mode
// the epoch-restart tolerance in FeedbackLabel/PelsSource exists for), and
// blackouts/burst corruption install loss processes on the wire.
#pragma once

#include <optional>
#include <vector>

#include "fault/loss_process.h"
#include "sim/simulation.h"
#include "util/time.h"

namespace pels {

class Link;
class PelsQueue;

struct FaultPlan {
  /// Link hard-down window: no serialization in [down_at, up_at); the packet
  /// on the wire when the link drops is lost. The attached queue keeps
  /// accepting (and eventually tail-dropping) packets, as a real interface
  /// buffer would during carrier loss.
  struct LinkFlap {
    SimTime down_at = 0;
    SimTime up_at = 0;
  };

  /// Bandwidth brown-out: link rate is scaled by `factor` in [at, until),
  /// then restored to its pre-window value.
  struct Brownout {
    SimTime at = 0;
    SimTime until = 0;
    double factor = 0.5;  // in (0, 1]
  };

  /// Router restart: the PELS queue's feedback meter loses its epoch,
  /// counters, and smoothed rate estimates, and restarts stamping from
  /// epoch 1 — the backward epoch jump consumers must tolerate.
  struct RouterRestart {
    SimTime at = 0;
  };

  /// Generic outage window (used for ACK-path blackouts).
  struct Window {
    SimTime at = 0;
    SimTime until = 0;
  };

  std::vector<LinkFlap> link_flaps;          // forward bottleneck wire
  std::vector<Brownout> brownouts;           // forward bottleneck rate
  std::vector<RouterRestart> router_restarts;  // bottleneck PELS queue
  std::vector<Window> ack_blackouts;         // reverse (ACK) path wire
  /// Burst corruption on the forward wire, alongside (not replacing) any
  /// configured Bernoulli wireless loss.
  std::optional<GilbertElliottConfig> burst_corruption;

  bool empty() const {
    return link_flaps.empty() && brownouts.empty() && router_restarts.empty() &&
           ack_blackouts.empty() && !burst_corruption.has_value();
  }

  /// Throws std::invalid_argument on nonsense (windows with until <= at,
  /// negative times, overlapping same-kind windows on the shared resource —
  /// two flaps or two brown-outs may touch but not overlap — brown-out
  /// factors outside (0, 1], invalid GE probabilities). Scenarios call this
  /// from their own validation.
  void validate() const;
};

/// Applies FaultPlan entries to concrete simulation objects. The injector
/// only *schedules*: all captured state lives in the scheduler's callbacks,
/// so the injector itself may be destroyed after wiring.
class FaultInjector {
 public:
  explicit FaultInjector(Simulation& sim) : sim_(sim) {}

  void inject_flap(Link& link, FaultPlan::LinkFlap flap);
  /// Scales `link`'s rate by the brown-out factor at `at` and restores, at
  /// `until`, the rate it had at `at`. A non-null `queue` (the link's PELS
  /// queue) re-derives its capacity share at both edges. Windows on one link
  /// may nest or be disjoint (FaultPlan::validate rejects overlap within a
  /// plan); each restores what its own start edge saw, so nested windows
  /// unwind to the original rate.
  void inject_brownout(Link& link, FaultPlan::Brownout brownout, PelsQueue* queue = nullptr);
  void inject_restart(PelsQueue& queue, FaultPlan::RouterRestart restart);
  /// Installs a blackout loss process on `reverse` covering all `windows`.
  void inject_blackouts(Link& reverse, const std::vector<FaultPlan::Window>& windows);
  /// Installs seeded Gilbert–Elliott burst corruption on `link`.
  void inject_burst_corruption(Link& link, GilbertElliottConfig config, Rng rng);

  /// Convenience: applies every entry of `plan` with `forward` as the data
  /// wire, `reverse` as the ACK wire, and `queue` as the forward wire's
  /// restartable, brown-out-resized AQM (may be null when the plan holds no
  /// restarts; brown-outs then scale the wire alone).
  void apply(const FaultPlan& plan, Link& forward, Link& reverse, PelsQueue* queue);

 private:
  Simulation& sim_;
};

}  // namespace pels
