// Wire-loss processes for fault injection.
//
// A loss process decides, per transmitted packet, whether the wire corrupts
// it. `Link` consumes these as plain callables (`bool(SimTime)`), so this
// module owns the models and the network layer stays ignorant of them.
// I.i.d. corruption at a fixed probability is Link::set_corruption itself
// (what `ScenarioConfig::wireless_loss` installs); the models here add state:
//
//   * GilbertElliottLoss — the classic two-state burst model: a good and a
//     bad state with per-packet transition probabilities and a per-state
//     corruption probability. Real wireless channels fade for many packets
//     at a time; Bernoulli loss cannot produce those bursts.
//   * BlackoutLoss — deterministic outage windows during which every packet
//     on the wire is lost (ACK-path blackouts, scheduled maintenance).
//
// All stochastic processes draw from an Rng handed in by the caller (derived
// from the simulation's master seed), so every run replays bit-for-bit.
#pragma once

#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace pels {

/// Two-state Gilbert–Elliott burst-corruption parameters.
///
/// Per packet: the corruption draw uses the *current* state's loss
/// probability, then the state transitions with p_good_to_bad /
/// p_bad_to_good. Stationary bad-state occupancy is
/// p_gb / (p_gb + p_bg); mean bad-burst length is 1 / p_bg packets.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.005;  // per-packet transition into the bad state
  double p_bad_to_good = 0.20;   // per-packet recovery (mean burst = 5 pkts)
  double loss_good = 0.0;        // corruption probability in the good state
  double loss_bad = 0.5;         // corruption probability in the bad state

  /// Long-run corruption probability across both states.
  double stationary_loss() const {
    const double pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good);
    return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
  }

  /// Throws std::invalid_argument unless all probabilities are valid
  /// (transitions in (0, 1], per-state losses in [0, 1]).
  void validate() const;
};

/// Gilbert–Elliott two-state burst corruption; starts in the good state.
class GilbertElliottLoss {
 public:
  GilbertElliottLoss(GilbertElliottConfig config, Rng rng)
      : cfg_(config), rng_(rng) {}

  bool lost(SimTime now);
  bool operator()(SimTime now) { return lost(now); }

 private:
  GilbertElliottConfig cfg_;
  Rng rng_;
  bool bad_ = false;
};

/// Deterministic outage: every packet in any [at, until) window is lost.
class BlackoutLoss {
 public:
  struct Window {
    SimTime at = 0;
    SimTime until = 0;
  };

  explicit BlackoutLoss(std::vector<Window> windows)
      : windows_(std::move(windows)) {}

  bool lost(SimTime now) const;
  bool operator()(SimTime now) const { return lost(now); }

 private:
  std::vector<Window> windows_;
};

}  // namespace pels
