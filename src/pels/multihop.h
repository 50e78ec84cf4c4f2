// Parking-lot scenario: two PELS bottlenecks in series.
//
//   long flows:   L  -> R1 ==B1==> R2 ==B2==> R3 -> sink
//   cross hop 1:  X1 -> R1 ==B1==> R2 -> sink
//   cross hop 2:  X2 -> R2 ==B2==> R3 -> sink
//
// Both bottlenecks run the PELS queue with distinct router ids. This is the
// multi-router case of paper §5.2: "When there are multiple routers along an
// end-to-end path, each router compares its p_l with that inside arriving
// packets and overrides the existing value only if its packet loss is larger
// than the current loss recorded in the header. End flows use the router ID
// field to keep track of feedback freshness and react to possible shifts of
// the bottlenecks." The long flows must therefore take the rate of the
// *most congested* hop (max-min allocation) and re-bind when the bottleneck
// moves.
#pragma once

#include <memory>
#include <vector>

#include "cc/flow_table.h"
#include "cc/mkc.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "queue/pels_queue.h"
#include "pels/pels_sink.h"
#include "pels/pels_source.h"
#include "video/rd_model.h"

namespace pels {

struct ParkingLotConfig {
  int long_flows = 1;
  int cross_flows_hop1 = 1;
  int cross_flows_hop2 = 3;
  double bottleneck1_bps = 4e6;  // link rate; PELS share = pels_weight fraction
  double bottleneck2_bps = 4e6;
  double edge_bps = 20e6;
  SimTime edge_delay = from_millis(2);
  SimTime bottleneck_delay = from_millis(10);
  PelsQueueConfig queue;  // router_id/link bandwidth overwritten per hop
  MkcConfig mkc;
  PelsSourceConfig source;
  RdModelConfig rd;
  /// Per-hop fault schedules: each plan's flaps/brown-outs/burst corruption
  /// hit that hop's forward wire, blackouts its reverse wire, restarts its
  /// PELS queue. Used for bottleneck-shift-under-failure experiments (a
  /// restart or brown-out on one hop must move the max-min binding).
  FaultPlan faults_hop1;
  FaultPlan faults_hop2;
  std::uint64_t seed = 1;

  /// Rejects negative flow counts, a run without long flows, non-positive
  /// bandwidths, negative delays and invalid MKC/gamma configs with
  /// std::invalid_argument. Called by the ParkingLotScenario constructor.
  void validate() const;
};

class ParkingLotScenario {
 public:
  explicit ParkingLotScenario(ParkingLotConfig config);

  void run_until(SimTime t);
  void finish();

  Simulation& sim() { return sim_; }
  PelsSource& long_flow(int i) { return *long_sources_.at(static_cast<std::size_t>(i)); }
  PelsSink& long_sink(int i) { return *long_sinks_.at(static_cast<std::size_t>(i)); }
  PelsSource& cross_flow_hop1(int i) { return *x1_sources_.at(static_cast<std::size_t>(i)); }
  PelsSource& cross_flow_hop2(int i) { return *x2_sources_.at(static_cast<std::size_t>(i)); }

  PelsQueue& bottleneck1() { return *queue1_; }
  PelsQueue& bottleneck2() { return *queue2_; }

  /// Router ids stamped by the two bottlenecks (1 and 2).
  static constexpr std::int32_t kRouter1 = 1;
  static constexpr std::int32_t kRouter2 = 2;

  const ParkingLotConfig& config() const { return cfg_; }

 private:
  ParkingLotConfig cfg_;
  Simulation sim_;
  Topology topo_;
  RdModel rd_;
  // Every flow's MKC state, gamma and pacing EWMA; outlives the sources.
  std::unique_ptr<FlowTable> flow_table_;
  PelsQueue* queue1_ = nullptr;
  PelsQueue* queue2_ = nullptr;
  std::vector<std::unique_ptr<PelsSource>> long_sources_;
  std::vector<std::unique_ptr<PelsSink>> long_sinks_;
  std::vector<std::unique_ptr<PelsSource>> x1_sources_;
  std::vector<std::unique_ptr<PelsSink>> x1_sinks_;
  std::vector<std::unique_ptr<PelsSource>> x2_sources_;
  std::vector<std::unique_ptr<PelsSink>> x2_sinks_;
};

}  // namespace pels
