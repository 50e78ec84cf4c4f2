// Workload `fattree-churn`: a 4-pod domain_per_pod fat tree (5 domains with
// the hostless core) under DomainRunner. 1984 video flows and 8 elephants
// start in the first second; mice keep arriving through the whole
// run, so FlowTable slots are allocated and freed under churn. The core is
// congested: red packets are dropped at the bottleneck queues (about half),
// yellow ones a few percent, green ones not at all. It is the only workload with
// DomainRunner windows and handoffs and 4-5 hop paths.
//
// One batch = a fresh fabric simulated over warmup + window with
// min(nproc, 4) workers; batches repeat with the same seed until the wall
// budget is spent. The workload cannot be stepped (it runs inside
// DomainRunner), so its traced run reads DomainRunner::stats(), per-domain
// executed counts and a 1-worker companion batch, which must end in the
// same fingerprint().
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "exp/domain_runner.h"
#include "exp/fabric.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pels;

// Base-layer protection on the congested core: the green band may lose at
// most 1% of its arrivals.
constexpr double kMaxGreenDropFrac = 0.01;

struct Shape {
  std::size_t videos_per_host;  // 32 hosts
  int elephants_per_pod;
  double mice_per_second;
  SimTime warmup;
  SimTime window;
};

Shape shape_for(const Options& opt) {
  if (opt.smoke) return {6, 1, 40.0, kSecond, kSecond};
  return {62, 2, 150.0, 2 * kSecond, 4 * kSecond};
}

FabricConfig fabric_config(const Options& opt) {
  FabricConfig fc;
  fc.kind = FabricConfig::Kind::kFatTree;
  fc.pods = 4;
  fc.racks_per_pod = 2;
  fc.hosts_per_rack = 4;
  fc.domain_per_pod = true;
  fc.seed = derive_seed(opt.seed, 4);
  return fc;
}

/// The long-lived population is built here, balanced so that seeds change
/// who talks to whom and when, not how loaded each bottleneck is: every
/// host sources the same number of video flows, spread evenly over the
/// other hosts in a seeded order, and two elephants leave each pod. The
/// mice come from gen_mixed_traffic, with starts spread over the whole
/// simulated span.
std::vector<FlowSpec> make_specs(const Options& opt, const Shape& sh) {
  const Fabric geometry(fabric_config(opt));
  const MixedTrafficConfig defaults;
  const int hosts = static_cast<int>(geometry.hosts().size());
  const int pods = geometry.config().pods;
  const int per_pod = hosts / pods;
  Rng rng(derive_seed(opt.seed, 5), /*stream=*/0xFA7);
  const auto start_in_first_second = [&rng] {
    return static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(kSecond)));
  };

  std::vector<FlowSpec> specs;
  for (int src = 0; src < hosts; ++src) {
    std::vector<int> peers;
    for (int dst = 0; dst < hosts; ++dst)
      if (dst != src) peers.push_back(dst);
    for (std::size_t i = peers.size() - 1; i > 0; --i)  // seeded Fisher-Yates
      std::swap(peers[i], peers[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    for (std::size_t k = 0; k < sh.videos_per_host; ++k) {
      FlowSpec f;
      f.cls = TrafficClass::kVideo;
      f.src_host = src;
      f.dst_host = peers[k % peers.size()];
      f.start = start_in_first_second();
      f.rate_bps = defaults.video_rate_bps;
      f.packet_bytes = defaults.packet_bytes;
      specs.push_back(f);
    }
  }
  for (int e = 0; e < sh.elephants_per_pod * pods; ++e) {
    const int src_pod = e % pods;
    const int dst_pod = (src_pod + 1 + e / pods) % pods;
    FlowSpec f;
    f.cls = TrafficClass::kElephant;
    f.src_host = src_pod * per_pod + static_cast<int>(rng.uniform_int(0, per_pod - 1));
    f.dst_host = dst_pod * per_pod + static_cast<int>(rng.uniform_int(0, per_pod - 1));
    f.start = start_in_first_second();
    f.rate_bps = defaults.elephant_rate_bps;
    f.packet_bytes = defaults.packet_bytes;
    specs.push_back(f);
  }

  MixedTrafficConfig mice;
  mice.video_flows = 0;
  mice.elephant_flows = 0;
  mice.start_window = sh.warmup + sh.window;
  mice.mice_flows = static_cast<std::size_t>(sh.mice_per_second * to_seconds(mice.start_window));
  mice.seed = derive_seed(opt.seed, 6);
  const std::vector<FlowSpec> churn = gen_mixed_traffic(geometry, mice);
  specs.insert(specs.end(), churn.begin(), churn.end());
  std::stable_sort(specs.begin(), specs.end(),
                   [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; });
  return specs;
}

struct DomainCounts {
  std::vector<std::uint64_t> executed;
  std::uint64_t cascades = 0;
  std::uint64_t stale = 0;
};

DomainCounts domain_counts(Fabric& f) {
  DomainCounts c;
  for (int d = 0; d < f.domain_count(); ++d) {
    const Scheduler::Stats st = f.sim(d).scheduler().stats();
    c.executed.push_back(st.executed);
    c.cascades += st.cascades;
    c.stale += st.stale_skipped;
  }
  return c;
}

struct Batch {
  double setup_s = 0.0;   // calibrated
  double window_s = 0.0;  // calibrated
  unsigned workers = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t allocs = 0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
  std::vector<std::uint64_t> domain_events;
  std::uint64_t cascades = 0;
  std::uint64_t stale = 0;
  FabricTotals totals;
  std::uint64_t fingerprint = 0;
  double bytes_per_flow = 0.0;
  bool conserved = false;
  std::string conservation_detail;
};

Batch run_batch(const Options& opt, const Shape& sh, const std::vector<FlowSpec>& specs,
                unsigned workers) {
  const FabricConfig fc = fabric_config(opt);
  std::vector<FlowSpec> copy = specs;
  Batch b;

  const auto t0 = Clock::now();
  Fabric fabric(fc);
  ManyFlowDriver driver(fabric, std::move(copy), ManyFlowDriverConfig{});
  fabric.reserve_runtime(driver.flow_count());
  driver.start();
  DomainRunner runner(fabric.topology(), workers);
  b.setup_s = seconds_between(t0, Clock::now());

  runner.run_until(sh.warmup);
  const std::uint64_t sent0 = driver.packets_sent();
  const std::uint64_t recv0 = driver.packets_received();
  const FabricTotals tot0 = fabric_totals(fabric);
  const DomainCounts dc0 = domain_counts(fabric);
  const DomainRunner::Stats rs0 = runner.stats();
  const double ref_before = reference_kernel_seconds();
  const std::uint64_t allocs0 = heap_allocs();
  const auto w0 = Clock::now();
  runner.run_until(sh.warmup + sh.window);
  b.window_s = seconds_between(w0, Clock::now());
  b.allocs = heap_allocs() - allocs0;
  const double scale = calibration(ref_before, reference_kernel_seconds());
  b.setup_s *= scale;
  b.window_s *= scale;

  const DomainRunner::Stats rs1 = runner.stats();
  const DomainCounts dc1 = domain_counts(fabric);
  const FabricTotals tot1 = fabric_totals(fabric);
  b.workers = rs1.effective_threads;
  b.sent = driver.packets_sent() - sent0;
  b.delivered = driver.packets_received() - recv0;
  b.windows = rs1.windows - rs0.windows;
  b.handoffs = rs1.handoffs - rs0.handoffs;
  for (std::size_t d = 0; d < dc1.executed.size(); ++d)
    b.domain_events.push_back(dc1.executed[d] - dc0.executed[d]);
  b.cascades = dc1.cascades - dc0.cascades;
  b.stale = dc1.stale - dc0.stale;
  b.totals = tot1 - tot0;
  b.fingerprint = driver.fingerprint();
  b.bytes_per_flow = static_cast<double>(driver.driver_memory_bytes()) /
                     static_cast<double>(driver.flow_count());
  b.conserved = check_conservation(fabric, driver, &b.conservation_detail);
  return b;
}

}  // namespace

void run_fattree(const Options& opt, Report& r) {
  const Shape sh = shape_for(opt);
  const std::vector<FlowSpec> specs = make_specs(opt, sh);

  std::vector<Batch> runs;    // min(nproc, 4) workers
  std::vector<Batch> serial;  // 1-worker companions (traced run only)
  const auto start = Clock::now();
  const std::size_t min_batches = opt.smoke ? 1 : 3;
  while (runs.size() < min_batches || seconds_between(start, Clock::now()) < opt.seconds) {
    runs.push_back(run_batch(opt, sh, specs, opt.workers));
    if (opt.trace) serial.push_back(run_batch(opt, sh, specs, 1));
  }

  const Batch& first = runs.front();
  std::vector<double> setup, ns_per_pkt;
  for (const Batch& b : runs) {
    setup.push_back(b.setup_s);
    ns_per_pkt.push_back(1e9 * b.window_s / static_cast<double>(b.delivered));
    r.check(b.delivered > 0, "fattree-churn: nothing delivered in the window");
    r.check(b.conserved, "fattree-churn: packet conservation: " + b.conservation_detail);
    r.check(b.fingerprint == first.fingerprint && b.delivered == first.delivered,
            "fattree-churn: a batch with the same seed diverged from the first");
  }
  const double green_drop_frac = ratio(static_cast<double>(first.totals.band_drops[0]),
                                       static_cast<double>(first.totals.band_arrivals[0]));
  r.check(green_drop_frac <= kMaxGreenDropFrac, "fattree-churn: green drops above limit");

  if (!opt.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("ns_per_delivered_pkt", median(ns_per_pkt), "ns");
    r.samples.push_back({"ns_per_delivered_pkt", ns_per_pkt});
    r.samples.push_back({"setup_s", setup});
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("green_kept_frac", 1.0 - green_drop_frac, "ratio");
    r.set("delivered_frac",
          ratio(static_cast<double>(first.delivered), static_cast<double>(first.sent)), "ratio");
    r.set("rate_accuracy_frac", 1.0, "ratio");
    set_no_video_metrics(r);
    return;
  }

  std::vector<double> speedup;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    r.check(serial[i].fingerprint == runs[i].fingerprint,
            "fattree-churn: fingerprint differs between " + std::to_string(runs[i].workers) +
                " workers and 1 worker");
    r.check(serial[i].conserved,
            "fattree-churn: packet conservation (1 worker): " + serial[i].conservation_detail);
    speedup.push_back(serial[i].window_s / runs[i].window_s);
  }
  std::uint64_t events = 0;
  std::uint64_t max_domain = 0;
  for (const std::uint64_t e : first.domain_events) {
    events += e;
    max_domain = std::max(max_domain, e);
  }
  const double mean_domain =
      static_cast<double>(events) / static_cast<double>(first.domain_events.size());
  std::uint64_t allocs = 0, delivered = 0;
  for (const Batch& b : runs) {
    allocs += b.allocs;
    delivered += b.delivered;
  }
  const double pkts = static_cast<double>(first.delivered);
  r.set("sim.events_per_pkt", ratio(static_cast<double>(events), pkts), "count");
  r.set("sim.cascades_per_kevent",
        1e3 * ratio(static_cast<double>(first.cascades), static_cast<double>(events)), "count");
  r.set("sim.stale_per_kevent",
        1e3 * ratio(static_cast<double>(first.stale), static_cast<double>(events)), "count");
  r.set("sim.allocs_per_pkt", ratio(static_cast<double>(allocs), static_cast<double>(delivered)),
        "count");
  r.set("net.link.events_per_pkt_hop",
        ratio(static_cast<double>(first.totals.links.pipeline_events),
              static_cast<double>(first.totals.links.delivered)),
        "count");
  const char* const bands[3] = {"green", "yellow", "red"};
  for (std::size_t c = 0; c < 3; ++c) {
    r.set(std::string("queue.drop_frac.") + bands[c],
          ratio(static_cast<double>(first.totals.band_drops[c]),
                static_cast<double>(first.totals.band_arrivals[c])),
          "ratio");
  }
  r.set("exp.driver.bytes_per_flow", first.bytes_per_flow, "B");
  r.set("exp.domain.speedup", median(speedup), "ratio");
  r.set("exp.domain.events_per_window",
        ratio(static_cast<double>(events), static_cast<double>(first.windows)), "count");
  r.set("exp.domain.handoffs_per_pkt", ratio(static_cast<double>(first.handoffs), pkts), "count");
  r.set("exp.domain.event_imbalance", ratio(static_cast<double>(max_domain), mean_domain),
        "ratio");
  // Nothing is traced inside the window on this workload: the traced run's
  // extra work (stats, fingerprints, the 1-worker companion) happens between
  // batches, so tracing costs the measured window nothing.
  r.set("trace.overhead_frac", 0.0, "ratio");
}

}  // namespace perfbench
