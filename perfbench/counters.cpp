// Counters and output checks shared by the workloads.
#include <sstream>

#include "bench.h"
#include "exp/fabric.h"
#include "video/fgs.h"
#include "video/rd_model.h"

namespace perfbench {

using namespace pels;

LinkTotals link_totals(Topology& topo) {
  LinkTotals t;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    t.pipeline_events += topo.link(i).pipeline_events();
    t.delivered += topo.link(i).packets_delivered();
  }
  return t;
}

FabricTotals FabricTotals::operator-(const FabricTotals& o) const {
  FabricTotals d;
  d.links.pipeline_events = links.pipeline_events - o.links.pipeline_events;
  d.links.delivered = links.delivered - o.links.delivered;
  for (std::size_t c = 0; c < 3; ++c) {
    d.band_arrivals[c] = band_arrivals[c] - o.band_arrivals[c];
    d.band_drops[c] = band_drops[c] - o.band_drops[c];
  }
  return d;
}

FabricTotals fabric_totals(Fabric& fabric) {
  FabricTotals t;
  t.links = link_totals(fabric.topology());
  for (std::size_t q = 0; q < fabric.core_queue_count(); ++q) {
    const ColorCounters& cc = fabric.core_queue(q).pels_group_counters();
    for (std::size_t c = 0; c < 3; ++c) {
      t.band_arrivals[c] += cc.arrivals[c];
      t.band_drops[c] += cc.drops[c];
    }
  }
  return t;
}

bool check_conservation(Fabric& fabric, const ManyFlowDriver& driver, std::string* detail) {
  Topology& topo = fabric.topology();
  std::uint64_t dropped = 0, queued = 0, on_wire = 0, link_delivered = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const Link& link = topo.link(i);
    const QueueDisc& q = link.queue();
    const std::uint64_t arrivals = q.counters().total_arrivals();
    const std::uint64_t accounted = q.counters().total_drops() + q.packet_count() +
                                    link.packets_in_flight() + link.packets_delivered() +
                                    link.packets_corrupted();
    if (arrivals != accounted) {
      std::ostringstream os;
      os << "link " << i << " arrivals " << arrivals << " != accounted " << accounted;
      *detail = os.str();
      return false;
    }
    dropped += q.counters().total_drops() + link.packets_corrupted();
    queued += q.packet_count();
    on_wire += link.packets_in_flight();
    link_delivered += link.packets_delivered();
  }
  std::uint64_t node_received = 0;
  for (std::size_t id = 0; id < topo.node_count(); ++id) {
    Node& n = topo.node(static_cast<NodeId>(id));
    if (const auto* h = dynamic_cast<const Host*>(&n)) {
      node_received += h->packets_received();
      dropped += h->packets_undeliverable();
    } else if (const auto* r = dynamic_cast<const Router*>(&n)) {
      node_received += r->packets_forwarded() + r->packets_unroutable();
      dropped += r->packets_unroutable();
    }
  }
  if (node_received > link_delivered) {
    *detail = "nodes received more packets than links delivered";
    return false;
  }
  const std::uint64_t in_handoff = link_delivered - node_received;
  const std::uint64_t sent = driver.packets_sent();
  const std::uint64_t delivered = driver.packets_received();
  if (sent != delivered + dropped + queued + on_wire + in_handoff) {
    std::ostringstream os;
    os << "sent " << sent << " != delivered " << delivered << " + dropped " << dropped
       << " + queued " << queued << " + on wire " << on_wire << " + in handoff " << in_handoff;
    *detail = os.str();
    return false;
  }
  return true;
}

void set_no_video_metrics(Report& report) {
  const VideoConfig video;
  const RdModel rd;
  double psnr = 0.0;
  for (std::int64_t f = 0; f < video.total_frames; ++f) psnr += rd.psnr(f, video.max_fgs_bytes());
  report.set("frame_ok_frac", 1.0, "ratio");
  report.set("mean_psnr_db", psnr / static_cast<double>(video.total_frames), "dB");
}

}  // namespace perfbench
