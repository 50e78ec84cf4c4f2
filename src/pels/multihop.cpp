#include "pels/multihop.h"

#include <stdexcept>

#include "queue/drop_tail.h"

namespace pels {

void ParkingLotConfig::validate() const {
  if (long_flows <= 0) throw std::invalid_argument("ParkingLotConfig: long_flows must be > 0");
  if (cross_flows_hop1 < 0 || cross_flows_hop2 < 0)
    throw std::invalid_argument("ParkingLotConfig: cross flow counts must be >= 0");
  if (!(bottleneck1_bps > 0.0 && bottleneck2_bps > 0.0 && edge_bps > 0.0))
    throw std::invalid_argument("ParkingLotConfig: bandwidths must be > 0");
  if (edge_delay < 0 || bottleneck_delay < 0)
    throw std::invalid_argument("ParkingLotConfig: delays must be >= 0");
  mkc.validate();
  source.gamma.validate();
}

ParkingLotScenario::ParkingLotScenario(ParkingLotConfig config)
    : cfg_(std::move(config)), sim_(cfg_.seed), topo_(sim_), rd_(cfg_.rd) {
  cfg_.validate();

  Router& r1 = topo_.add_router("R1");
  Router& r2 = topo_.add_router("R2");
  Router& r3 = topo_.add_router("R3");

  const QueueFactory edge_queue = [](double) {
    return std::make_unique<DropTailQueue>(2000);
  };
  auto bottleneck_factory = [this](std::int32_t router_id, PelsQueue** out) {
    return [this, router_id, out](double bw) -> std::unique_ptr<QueueDisc> {
      PelsQueueConfig qc = cfg_.queue;
      qc.router_id = router_id;
      qc.link_bandwidth_bps = bw;
      auto q = std::make_unique<PelsQueue>(sim_.scheduler(), qc);
      *out = q.get();
      return q;
    };
  };

  Link& fwd1 = topo_.add_link(r1, r2, cfg_.bottleneck1_bps, cfg_.bottleneck_delay,
                              bottleneck_factory(kRouter1, &queue1_));
  Link& rev1 =
      topo_.add_link(r2, r1, cfg_.bottleneck1_bps, cfg_.bottleneck_delay, edge_queue);
  Link& fwd2 = topo_.add_link(r2, r3, cfg_.bottleneck2_bps, cfg_.bottleneck_delay,
                              bottleneck_factory(kRouter2, &queue2_));
  Link& rev2 =
      topo_.add_link(r3, r2, cfg_.bottleneck2_bps, cfg_.bottleneck_delay, edge_queue);

  cfg_.faults_hop1.validate();
  cfg_.faults_hop2.validate();
  if (!cfg_.faults_hop1.empty() || !cfg_.faults_hop2.empty()) {
    FaultInjector injector(sim_);
    injector.apply(cfg_.faults_hop1, fwd1, rev1, queue1_);
    injector.apply(cfg_.faults_hop2, fwd2, rev2, queue2_);
  }

  const int total =
      cfg_.long_flows + cfg_.cross_flows_hop1 + cfg_.cross_flows_hop2;
  flow_table_ = std::make_unique<FlowTable>(cfg_.mkc, cfg_.source.gamma);
  flow_table_->reserve(static_cast<std::size_t>(total));

  FlowId next_flow = 0;
  auto add_flow = [&](Router& in, Router& out, std::vector<std::unique_ptr<PelsSource>>& srcs,
                      std::vector<std::unique_ptr<PelsSink>>& sinks, SimTime phase) {
    Host& src_host = topo_.add_host("s" + std::to_string(next_flow));
    Host& dst_host = topo_.add_host("d" + std::to_string(next_flow));
    topo_.connect(src_host, in, cfg_.edge_bps, cfg_.edge_delay, edge_queue);
    topo_.connect(out, dst_host, cfg_.edge_bps, cfg_.edge_delay, edge_queue);
    const FlowId flow = next_flow++;
    sinks.push_back(std::make_unique<PelsSink>(sim_, dst_host, flow, src_host.id(),
                                               cfg_.source.video, rd_,
                                               cfg_.source.ack_size_bytes));
    const FlowSlot slot = flow_table_->add_flow();
    srcs.push_back(std::make_unique<PelsSource>(
        sim_, src_host, flow, dst_host.id(),
        std::make_unique<MkcController>(*flow_table_, slot), *flow_table_, slot, cfg_.source));
    srcs.back()->start(phase);
  };

  const SimTime period = cfg_.source.video.frame_period();
  int idx = 0;
  for (int i = 0; i < cfg_.long_flows; ++i)
    add_flow(r1, r3, long_sources_, long_sinks_, (idx++ * period) / total);
  for (int i = 0; i < cfg_.cross_flows_hop1; ++i)
    add_flow(r1, r2, x1_sources_, x1_sinks_, (idx++ * period) / total);
  for (int i = 0; i < cfg_.cross_flows_hop2; ++i)
    add_flow(r2, r3, x2_sources_, x2_sinks_, (idx++ * period) / total);

  topo_.compute_routes();
}

void ParkingLotScenario::run_until(SimTime t) { sim_.run_until(t); }

void ParkingLotScenario::finish() {
  for (auto& s : long_sinks_) s->finalize_all();
  for (auto& s : x1_sinks_) s->finalize_all();
  for (auto& s : x2_sinks_) s->finalize_all();
}

}  // namespace pels
