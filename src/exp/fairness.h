// Fairness-matrix experiment: mixed congestion-control ecosystems sharing
// one PELS bottleneck.
//
// One *cell* runs a dumbbell with two classes of PELS video flows (each
// class driven by one controller from the zoo: MKC, CUBIC, DCQCN, Swift,
// SCReAM-lite), optional greedy TCP cross traffic, optional per-flow base-RTT
// diversity, and ECN threshold marking at the PELS AQM. The cell reports the
// coexistence metrics the fairness gate checks (the "fairness_matrix" rules
// in tools/bench_compare.py):
//   * Jain's fairness index over per-video-flow goodput,
//   * per-class throughput shares (class A / class B / TCP),
//   * base-layer protection: the worst per-flow fraction of frames whose
//     base layer decoded — the paper's core promise, which must hold no
//     matter which controllers share the link,
//   * green-band one-way delay percentiles (p50/p95/p99).
// default_fairness_matrix() enumerates the committed BENCH_fairness.json
// scenario set; bench/fairness_matrix.cpp runs it.
#pragma once

#include <string>
#include <vector>

#include "cc/flow_table.h"
#include "util/time.h"

namespace pels {

struct FairnessCellConfig {
  std::string label;
  CcKind class_a = CcKind::kMkc;
  CcKind class_b = CcKind::kMkc;
  int flows_a = 2;
  int flows_b = 2;
  int tcp_flows = 0;
  double bottleneck_bps = 4e6;
  SimTime bottleneck_delay = from_millis(10);
  /// Per-flow edge delays (see ScenarioConfig::edge_delays); empty = uniform.
  std::vector<SimTime> edge_delays;
  SimTime duration = 60 * kSecond;
  /// Goodput/share accounting starts here (start-up transients excluded);
  /// must be < duration.
  SimTime warmup = 20 * kSecond;
  /// PELS AQM ECN step-marking threshold (packets); 0 disables marking.
  /// Mark-driven zoo members (DCQCN, SCReAM's mark back-off) need this on.
  std::size_t ecn_mark_threshold_pkts = 8;
  std::uint64_t seed = 1;
};

struct FairnessCellResult {
  std::string label;
  double jain_video = 0.0;       // Jain index over video-flow goodputs
  double share_a = 0.0;          // class A goodput / total goodput
  double share_b = 0.0;
  double share_tcp = 0.0;
  double base_protection = 1.0;  // min over video flows of base-ok fraction
  double delay_p50_ms = 0.0;     // green-band one-way delay percentiles
  double delay_p95_ms = 0.0;
  double delay_p99_ms = 0.0;
  std::uint64_t ecn_marks = 0;   // marks applied at the bottleneck
  std::vector<double> video_goodputs_bps;  // class A flows first, then B
  std::vector<double> tcp_goodputs_bps;
};

/// Runs one cell to completion. Throws std::invalid_argument on nonsense
/// (non-positive flow counts, warmup >= duration).
FairnessCellResult run_fairness_cell(const FairnessCellConfig& cfg);

/// The committed scenario set: per-pair coexistence against MKC, RTT
/// diversity (base RTTs ~10-200 ms), asymmetric class ratios, and TCP cross
/// traffic. `smoke` swaps in a 3-cell short-duration subset for CI.
std::vector<FairnessCellConfig> default_fairness_matrix(bool smoke);

}  // namespace pels
