// Workload `population-1m`: 10^6 video flows in ManyFlowDriver on a
// single-domain parking lot, in bench/many_flows' "huge" shape: 400 Mb/s
// aggregate, 250 B packets, per-flow rates pinned by the rate clamp and one
// batched control tick per second. 10^6 pending pacing timers and a 10^6-lane
// FlowTable tick load the timing wheel, the slot pool, batch control and
// per-flow memory. It has no PelsSource, no drops and no telemetry: the
// bypass case for pels, video and queue-drop changes.
//
// One process builds the population once (set-up is repeated and timed
// several times, keeping the last build), warms it up past a full wheel
// level-1 wrap, then measures 2 s windows until the wall budget is spent.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/fabric.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pels;

constexpr std::int32_t kPacketBytes = 250;
constexpr double kMaxGreenDropFrac = 1e-3;
constexpr double kMaxRateErrFrac = 0.05;

struct Shape {
  std::size_t flows;
  double aggregate_bps;
  double core_bps;
  double edge_bps;
  SimTime warmup;
  SimTime window;
  int setups;
};

Shape shape_for(const Options& opt) {
  // The warmup outlasts the clamp pin-in plus one wheel level-1 wrap (~8.6
  // s), after which bucket storage has reached steady capacity.
  if (opt.smoke) return {10'000, 40e6, 125e6, 200e6, 3 * kSecond, kSecond, 2};
  return {1'000'000, 400e6, 1.25e9, 2e9, 13 * kSecond, 2 * kSecond, 5};
}

std::vector<FlowSpec> make_specs(const Shape& sh, std::uint64_t seed) {
  const double per_flow = sh.aggregate_bps / static_cast<double>(sh.flows);
  Rng rng(seed, /*stream=*/0x9091);
  std::vector<FlowSpec> specs;
  specs.reserve(sh.flows);
  // Starts spread over the first half of the warmup, each jittered inside
  // its own slot so the order (and the driver's activation cursor) holds.
  const double slot = 0.5 * static_cast<double>(sh.warmup) / static_cast<double>(sh.flows);
  for (std::size_t i = 0; i < sh.flows; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kVideo;
    s.src_host = 0;
    s.dst_host = 1;
    s.start = static_cast<SimTime>(slot * (static_cast<double>(i) + rng.uniform(0.0, 1.0)));
    s.rate_bps = per_flow;
    s.packet_bytes = kPacketBytes;
    specs.push_back(s);
  }
  return specs;
}

ManyFlowDriverConfig make_driver_config(const Shape& sh) {
  const double per_flow = sh.aggregate_bps / static_cast<double>(sh.flows);
  ManyFlowDriverConfig dc;
  dc.mkc.initial_rate_bps = per_flow;
  dc.mkc.min_rate_bps = per_flow / 4.0;
  dc.mkc.max_rate_bps = per_flow * 1.25;
  dc.mkc.alpha_bps = per_flow * 0.05;
  dc.mkc.silence_floor_bps = per_flow / 2.0;
  dc.control_interval = kSecond;
  dc.max_rate_factor = 1.25;
  return dc;
}

/// A built population: fabric, driver, started.
struct Population {
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<ManyFlowDriver> driver;
};

Population build(const Shape& sh, const FabricConfig& fc, std::vector<FlowSpec> specs,
                 const ManyFlowDriverConfig& dc) {
  Population p;
  p.fabric = std::make_unique<Fabric>(fc);
  p.driver = std::make_unique<ManyFlowDriver>(*p.fabric, std::move(specs), dc);
  p.fabric->reserve_runtime(sh.flows);
  p.driver->start();
  return p;
}

/// Step attribution for the driver: link pipelines, per-flow pace events,
/// the batched control tick and the bottleneck's feedback epoch. Flow
/// activation (done during warmup) and anything else is `other`.
class PopulationProbe {
 public:
  PopulationProbe(Fabric& fabric, ManyFlowDriver& driver) : fabric_(fabric), driver_(driver) {
    for (std::size_t i = 0; i < fabric.topology().link_count(); ++i)
      links_.push_back(&fabric.topology().link(i));
  }
  void reset() { last_ = read(); }
  int classify() {
    const Counters now = read();
    int kind = kOther;
    if (now.control != last_.control) kind = kControl;
    else if (now.feedback != last_.feedback) kind = kFeedback;
    else if (now.pace != last_.pace) kind = kPace;
    else if (now.link != last_.link) kind = kLink;
    last_ = now;
    return kind;
  }

 private:
  struct Counters {
    std::uint64_t link = 0, pace = 0, control = 0, feedback = 0;
  };
  Counters read() const {
    Counters c;
    for (const Link* l : links_) c.link += l->pipeline_events();
    c.pace = driver_.packets_sent();
    c.control = driver_.control_ticks();
    for (std::size_t q = 0; q < fabric_.core_queue_count(); ++q)
      c.feedback += fabric_.core_queue(q).epoch();
    return c;
  }
  Fabric& fabric_;
  ManyFlowDriver& driver_;
  std::vector<const Link*> links_;
  Counters last_;
};

double mean_video_rate(const ManyFlowDriver& d) {
  double sum = 0.0;
  for (std::size_t i = 0; i < d.flow_count(); ++i) sum += d.flow_rate_bps(i);
  return sum / static_cast<double>(d.flow_count());
}

struct Window {
  double wall_s = 0.0;  // calibrated
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cascades = 0;
  std::uint64_t stale = 0;
  FabricTotals counters;
  double mean_rate_bps = 0.0;
};

}  // namespace

void run_population(const Options& opt, Report& r, StepTracer& tracer) {
  const Shape sh = shape_for(opt);
  FabricConfig fc;
  fc.kind = FabricConfig::Kind::kParkingLot;
  fc.hops = 1;
  // The PELS share of the core (half of it) stays above the clamp ceiling,
  // so the bottleneck is uncongested and every flow pins at its clamp.
  fc.core_bandwidth_bps = sh.core_bps;
  fc.edge_bandwidth_bps = sh.edge_bps;
  fc.seed = derive_seed(opt.seed, 2);
  const std::vector<FlowSpec> specs = make_specs(sh, derive_seed(opt.seed, 3));
  const ManyFlowDriverConfig dc = make_driver_config(sh);

  std::vector<double> setup;
  Population pop;
  const double setup_ref_before = reference_kernel_seconds();
  for (int i = 0; i < sh.setups; ++i) {
    // Release the previous build before timing the next; the driver holds
    // references into its fabric, so it goes first.
    pop.driver.reset();
    pop.fabric.reset();
    std::vector<FlowSpec> copy = specs;
    const auto t0 = Clock::now();
    pop = build(sh, fc, std::move(copy), dc);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_scale = calibration(setup_ref_before, reference_kernel_seconds());
  for (double& v : setup) v *= setup_scale;
  Fabric& fabric = *pop.fabric;
  ManyFlowDriver& driver = *pop.driver;
  Scheduler& sched = fabric.sim().scheduler();
  driver.run_until(sh.warmup);

  // Lemma 6 at the single bottleneck, clamped to the MKC rate bounds.
  const double lemma6 = fabric.core_queue(0).pels_capacity_bps() / static_cast<double>(sh.flows) +
                        dc.mkc.alpha_bps / dc.mkc.beta;
  const double r_star = std::clamp(lemma6, dc.mkc.min_rate_bps, dc.mkc.max_rate_bps);

  Histogram sink_on_packet;
  std::vector<std::unique_ptr<TimedAgent>> wrappers;
  std::vector<Agent*> originals;
  for (Host* h : fabric.hosts()) {
    originals.push_back(h->default_agent());
    wrappers.push_back(std::make_unique<TimedAgent>(*h->default_agent(), tracer, sink_on_packet,
                                                    "cc.sink"));
  }
  const auto wrap = [&](bool on) {
    for (std::size_t i = 0; i < fabric.hosts().size(); ++i)
      fabric.hosts()[i]->set_default_agent(on ? wrappers[i].get() : originals[i]);
  };

  SimTime now = sh.warmup;
  const auto measure = [&](bool traced) {
    Window w;
    const std::uint64_t sent0 = driver.packets_sent();
    const std::uint64_t recv0 = driver.packets_received();
    const FabricTotals c0 = fabric_totals(fabric);
    const Scheduler::Stats st0 = sched.stats();
    if (traced) wrap(true);
    const double ref_before = reference_kernel_seconds();
    const std::uint64_t allocs0 = heap_allocs();
    const auto t0 = Clock::now();
    if (traced) {
      PopulationProbe probe(fabric, driver);
      traced_run_until(sched, now + sh.window, probe, tracer);
    } else {
      driver.run_until(now + sh.window);
    }
    w.wall_s = seconds_between(t0, Clock::now());
    w.allocs = heap_allocs() - allocs0;
    w.wall_s *= calibration(ref_before, reference_kernel_seconds());
    if (traced) wrap(false);
    now += sh.window;
    const Scheduler::Stats st1 = sched.stats();
    const FabricTotals c1 = fabric_totals(fabric);
    w.sent = driver.packets_sent() - sent0;
    w.delivered = driver.packets_received() - recv0;
    w.events = st1.executed - st0.executed;
    w.cascades = st1.cascades - st0.cascades;
    w.stale = st1.stale_skipped - st0.stale_skipped;
    w.counters = c1 - c0;
    w.mean_rate_bps = mean_video_rate(driver);
    return w;
  };

  std::vector<Window> plain;
  std::vector<Window> traced;
  const auto start = Clock::now();
  const std::size_t min_windows = opt.smoke ? 1 : 3;
  while (plain.size() < min_windows || seconds_between(start, Clock::now()) < opt.seconds) {
    plain.push_back(measure(false));
    if (opt.trace) traced.push_back(measure(true));
  }

  // Output checks: packets are conserved, the base layer is protected and
  // the flows hold the clamped Lemma 6 rate.
  std::uint64_t sent = 0, delivered = 0, green_arr = 0, green_drop = 0, allocs = 0;
  std::vector<double> ns_per_pkt, rate_err;
  for (const Window& w : plain) {
    r.check(w.delivered > 0, "population-1m: nothing delivered in a window");
    sent += w.sent;
    delivered += w.delivered;
    green_arr += w.counters.band_arrivals[0];
    green_drop += w.counters.band_drops[0];
    allocs += w.allocs;
    ns_per_pkt.push_back(1e9 * w.wall_s / static_cast<double>(w.delivered));
    rate_err.push_back(std::abs(w.mean_rate_bps - r_star) / r_star);
  }
  for (const Window& w : traced) rate_err.push_back(std::abs(w.mean_rate_bps - r_star) / r_star);
  std::string detail;
  r.check(check_conservation(fabric, driver, &detail),
          "population-1m: packet conservation: " + detail);
  const double green_drop_frac = ratio(static_cast<double>(green_drop), static_cast<double>(green_arr));
  const double rate_err_frac = median(rate_err);
  r.check(green_drop_frac <= kMaxGreenDropFrac, "population-1m: green drops above limit");
  r.check(rate_err_frac <= kMaxRateErrFrac, "population-1m: mean rate off the clamped Lemma 6 rate");

  const double bytes_per_flow =
      static_cast<double>(driver.driver_memory_bytes()) / static_cast<double>(sh.flows);
  wrappers.clear();

  if (!opt.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("ns_per_delivered_pkt", median(ns_per_pkt), "ns");
    r.samples.push_back({"ns_per_delivered_pkt", ns_per_pkt});
    r.samples.push_back({"setup_s", setup});
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("green_kept_frac", 1.0 - green_drop_frac, "ratio");
    r.set("delivered_frac", ratio(static_cast<double>(delivered), static_cast<double>(sent)),
          "ratio");
    r.set("rate_accuracy_frac", 1.0 - rate_err_frac, "ratio");
    set_no_video_metrics(r);
    return;
  }

  std::uint64_t t_delivered = 0, t_events = 0;
  std::vector<double> traced_ns;
  for (const Window& w : traced) {
    t_delivered += w.delivered;
    t_events += w.events;
    traced_ns.push_back(1e9 * w.wall_s / static_cast<double>(w.delivered));
  }
  std::uint64_t plain_events = 0, cascades = 0, stale = 0, pipe = 0, link_del = 0;
  for (const Window& w : plain) {
    plain_events += w.events;
    cascades += w.cascades;
    stale += w.stale;
    pipe += w.counters.links.pipeline_events;
    link_del += w.counters.links.delivered;
  }
  r.check(tracer.total_events() == t_events,
          "population-1m: traced steps do not add up to the scheduler's executed count");

  const auto per_pkt = [&](double v) { return ratio(v, static_cast<double>(t_delivered)); };
  const Histogram& control = tracer.kind(kControl).self;
  r.set("sim.events_per_pkt", per_pkt(static_cast<double>(tracer.total_events())), "count");
  r.set("sim.step_ns.p50", tracer.steps().quantile(0.50), "ns");
  r.set("sim.step_ns.p99", tracer.steps().quantile(0.99), "ns");
  r.set("sim.cascades_per_kevent",
        1e3 * ratio(static_cast<double>(cascades), static_cast<double>(plain_events)), "count");
  r.set("sim.stale_per_kevent",
        1e3 * ratio(static_cast<double>(stale), static_cast<double>(plain_events)), "count");
  r.set("sim.allocs_per_pkt", ratio(static_cast<double>(allocs), static_cast<double>(delivered)),
        "count");
  r.set("net.link.events_per_pkt_hop",
        ratio(static_cast<double>(pipe), static_cast<double>(link_del)), "count");
  r.set("net.link.self_ns_per_pkt", per_pkt(tracer.kind(kLink).self_ns), "ns");
  r.set("queue.feedback.self_ns_per_epoch", tracer.kind(kFeedback).self.mean(), "ns");
  r.set("cc.control.tick_ms.p50", control.quantile(0.50) / 1e6, "ms");
  r.set("cc.control.tick_ms.max", control.max() / 1e6, "ms");
  r.set("cc.control.ns_per_flow", control.mean() / static_cast<double>(sh.flows), "ns");
  r.set("cc.sink.on_packet_ns.p50", sink_on_packet.quantile(0.50), "ns");
  for (int k = 0; k < kNumKinds; ++k) {
    r.set(std::string("pels.events_per_pkt.") + kind_name(k),
          per_pkt(static_cast<double>(tracer.kind(k).events)), "count");
  }
  r.set("exp.driver.pace.self_ns", tracer.kind(kPace).self.mean(), "ns");
  r.set("exp.driver.bytes_per_flow", bytes_per_flow, "B");
  r.set("trace.overhead_frac", median(traced_ns) / median(ns_per_pkt) - 1.0, "ratio");
}

}  // namespace perfbench
