#include "exp/fairness.h"

#include <algorithm>
#include <stdexcept>

#include "pels/scenario.h"
#include "util/stats.h"

namespace pels {

FairnessCellResult run_fairness_cell(const FairnessCellConfig& cfg) {
  if (cfg.flows_a <= 0 || cfg.flows_b < 0)
    throw std::invalid_argument("fairness cell: flows_a must be > 0, flows_b >= 0");
  if (cfg.tcp_flows < 0)
    throw std::invalid_argument("fairness cell: tcp_flows must be >= 0");
  if (cfg.warmup < 0 || cfg.warmup >= cfg.duration)
    throw std::invalid_argument("fairness cell: need 0 <= warmup < duration");

  ScenarioConfig scen;
  scen.pels_flows = cfg.flows_a + cfg.flows_b;
  scen.tcp_flows = cfg.tcp_flows;
  scen.bottleneck_bps = cfg.bottleneck_bps;
  scen.bottleneck_delay = cfg.bottleneck_delay;
  scen.edge_delays = cfg.edge_delays;
  scen.seed = cfg.seed;
  scen.pels_queue.ecn_mark_threshold_pkts = cfg.ecn_mark_threshold_pkts;
  scen.cc_kinds.assign(static_cast<std::size_t>(cfg.flows_a), cfg.class_a);
  scen.cc_kinds.insert(scen.cc_kinds.end(), static_cast<std::size_t>(cfg.flows_b),
                       cfg.class_b);
  DumbbellScenario s(scen);

  // Warmup boundary snapshot: goodput is measured over [warmup, duration] so
  // slow-start/ramp transients do not dilute the steady-state shares.
  s.run_until(cfg.warmup);
  std::vector<std::uint64_t> video_bytes_at_warmup;
  std::vector<std::uint64_t> tcp_acked_at_warmup;
  for (int i = 0; i < scen.pels_flows; ++i)
    video_bytes_at_warmup.push_back(s.sink(i).data_bytes_received());
  for (int i = 0; i < cfg.tcp_flows; ++i)
    tcp_acked_at_warmup.push_back(s.tcp_source(i).highest_acked());
  s.run_until(cfg.duration);
  s.finish();

  const double window_sec = to_seconds(cfg.duration - cfg.warmup);
  FairnessCellResult out;
  out.label = cfg.label;

  double total = 0.0;
  double total_a = 0.0;
  double total_b = 0.0;
  double total_tcp = 0.0;
  for (int i = 0; i < scen.pels_flows; ++i) {
    const auto delta =
        s.sink(i).data_bytes_received() - video_bytes_at_warmup[static_cast<std::size_t>(i)];
    const double bps = static_cast<double>(delta) * 8.0 / window_sec;
    out.video_goodputs_bps.push_back(bps);
    total += bps;
    (i < cfg.flows_a ? total_a : total_b) += bps;
  }
  const std::int32_t tcp_pkt_bytes = TcpConfig{}.packet_size_bytes;
  for (int i = 0; i < cfg.tcp_flows; ++i) {
    const auto delta =
        s.tcp_source(i).highest_acked() - tcp_acked_at_warmup[static_cast<std::size_t>(i)];
    const double bps = static_cast<double>(delta) * tcp_pkt_bytes * 8.0 / window_sec;
    out.tcp_goodputs_bps.push_back(bps);
    total += bps;
    total_tcp += bps;
  }
  out.jain_video = jain_fairness_index(out.video_goodputs_bps);
  if (total > 0.0) {
    out.share_a = total_a / total;
    out.share_b = total_b / total;
    out.share_tcp = total_tcp / total;
  }

  // Base-layer protection: worst flow's fraction of finalized frames whose
  // base layer decoded. A flow with no finalized frames scores 0 — a cell
  // too short to produce frames must fail the gate, not silently pass it.
  double protection = 1.0;
  for (int i = 0; i < scen.pels_flows; ++i) {
    const auto& qualities = s.sink(i).frame_qualities();
    if (qualities.empty()) {
      protection = 0.0;
      break;
    }
    std::size_t base_ok = 0;
    for (const auto& q : qualities) base_ok += q.base_ok ? 1 : 0;
    protection = std::min(
        protection, static_cast<double>(base_ok) / static_cast<double>(qualities.size()));
  }
  out.base_protection = protection;

  // Green-band one-way delay distribution, pooled across video flows.
  SampleSet green;
  for (int i = 0; i < scen.pels_flows; ++i) {
    for (const TimeSeries::Point& p : s.sink(i).delay_series(Color::kGreen).points())
      green.add(p.value);
  }
  if (green.count() > 0) {
    out.delay_p50_ms = green.quantile(0.50) * 1e3;
    out.delay_p95_ms = green.quantile(0.95) * 1e3;
    out.delay_p99_ms = green.quantile(0.99) * 1e3;
  }
  if (s.pels_queue() != nullptr) out.ecn_marks = s.pels_queue()->ecn_marks();
  return out;
}

std::vector<FairnessCellConfig> default_fairness_matrix(bool smoke) {
  // Base RTTs: 4 * edge_delay + 2 * bottleneck_delay. With a 2 ms bottleneck
  // the ladder below spans ~10 ms to ~200 ms.
  const std::vector<SimTime> rtt_ladder = {from_millis(1.5), from_millis(12),
                                           from_millis(25), from_millis(45.5)};

  const auto pair_cell = [](std::string label, CcKind a, CcKind b) {
    FairnessCellConfig c;
    c.label = std::move(label);
    c.class_a = a;
    c.class_b = b;
    return c;
  };

  if (smoke) {
    std::vector<FairnessCellConfig> cells;
    cells.push_back(pair_cell("smoke_mkc_vs_cubic", CcKind::kMkc, CcKind::kCubic));
    cells.push_back(pair_cell("smoke_mkc_vs_dcqcn", CcKind::kMkc, CcKind::kDcqcn));
    FairnessCellConfig rtt = pair_cell("smoke_mkc_rtt_diverse", CcKind::kMkc, CcKind::kMkc);
    rtt.bottleneck_delay = from_millis(2);
    rtt.edge_delays = rtt_ladder;
    cells.push_back(rtt);
    for (auto& c : cells) {
      c.duration = 16 * kSecond;
      c.warmup = 6 * kSecond;
    }
    return cells;
  }

  std::vector<FairnessCellConfig> cells;
  // Per-pair coexistence against MKC, plus the homogeneous baseline and one
  // all-newcomer pairing.
  cells.push_back(pair_cell("mkc_vs_mkc", CcKind::kMkc, CcKind::kMkc));
  cells.push_back(pair_cell("mkc_vs_cubic", CcKind::kMkc, CcKind::kCubic));
  cells.push_back(pair_cell("mkc_vs_dcqcn", CcKind::kMkc, CcKind::kDcqcn));
  cells.push_back(pair_cell("mkc_vs_swift", CcKind::kMkc, CcKind::kSwift));
  cells.push_back(pair_cell("mkc_vs_scream", CcKind::kMkc, CcKind::kScream));
  cells.push_back(pair_cell("cubic_vs_scream", CcKind::kCubic, CcKind::kScream));
  // RTT diversity: the same controller at base RTTs ~10-200 ms.
  for (const auto& [label, kind] :
       {std::pair<const char*, CcKind>{"mkc_rtt_diverse", CcKind::kMkc},
        std::pair<const char*, CcKind>{"cubic_rtt_diverse", CcKind::kCubic}}) {
    FairnessCellConfig c = pair_cell(label, kind, kind);
    c.bottleneck_delay = from_millis(2);
    c.edge_delays = rtt_ladder;
    cells.push_back(c);
  }
  // Asymmetric class ratios (1:3 and 3:1 cross-traffic mixes).
  {
    FairnessCellConfig c = pair_cell("mkc_cubic_1_3", CcKind::kMkc, CcKind::kCubic);
    c.flows_a = 1;
    c.flows_b = 3;
    cells.push_back(c);
    c.label = "mkc_cubic_3_1";
    c.flows_a = 3;
    c.flows_b = 1;
    cells.push_back(c);
  }
  // Greedy TCP cross traffic behind the WRR Internet share.
  {
    FairnessCellConfig c = pair_cell("mkc_vs_tcp", CcKind::kMkc, CcKind::kMkc);
    c.tcp_flows = 4;
    cells.push_back(c);
    c = pair_cell("cubic_scream_vs_tcp", CcKind::kCubic, CcKind::kScream);
    c.tcp_flows = 2;
    cells.push_back(c);
  }
  return cells;
}

}  // namespace pels
