// Workload `dumbbell`: the paper's Fig. 6 topology with 32 PELS flows and 8
// TCP flows, the bottleneck scaled to 32 Mb/s so every flow sits at Lemma 6's
// operating point r* = 16 Mb/s / 32 + alpha/beta = 540 kb/s. The full closed
// loop runs (FGS frames, gamma partitioning, MKC labels echoed in ACKs, sink
// decode) with the telemetry sampler at 100 ms and the InvariantMonitor
// aborting on any violation.
//
// One batch = a fresh scenario simulated over warmup + window; only the
// window is timed. Batches repeat with the same seed until the wall budget
// is spent, so every batch must reproduce the first one's outcome exactly.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "pels/scenario.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pels;

constexpr int kPelsFlows = 32;
constexpr int kTcpFlows = 8;
constexpr double kBottleneckBps = 32e6;
// Output-check limits: base-layer protection and Lemma 6 tracking.
constexpr double kMaxGreenDropFrac = 1e-3;
constexpr double kMaxRateErrFrac = 0.05;

struct Span {
  SimTime warmup;
  SimTime window;
};

Span span_for(const Options& opt) {
  return opt.smoke ? Span{2 * kSecond, 2 * kSecond} : Span{10 * kSecond, 20 * kSecond};
}

ScenarioConfig make_config(const Options& opt, const Span& span) {
  ScenarioConfig cfg;
  cfg.pels_flows = kPelsFlows;
  cfg.tcp_flows = kTcpFlows;
  cfg.bottleneck_bps = kBottleneckBps;
  cfg.seed = derive_seed(opt.seed, 1);
  // Flows join at seeded times within the first second; the scenario adds
  // its own sub-frame phase per flow on top.
  Rng rng(derive_seed(opt.seed, 7), /*stream=*/0xD8B);
  for (int i = 0; i < kPelsFlows; ++i)
    cfg.start_times.push_back(static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(kSecond))));
  cfg.telemetry.enabled = true;
  cfg.telemetry.period = from_millis(100);
  cfg.telemetry.max_samples =
      static_cast<std::size_t>((span.warmup + span.window) / cfg.telemetry.period) + 16;
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  return cfg;
}

std::uint64_t pels_delivered(DumbbellScenario& s) {
  std::uint64_t n = 0;
  for (int i = 0; i < s.pels_flow_count(); ++i)
    for (std::size_t c = 0; c < kNumColors; ++c)
      n += s.sink(i).packets_received(static_cast<Color>(c));
  return n;
}

std::uint64_t pels_sent(DumbbellScenario& s) {
  std::uint64_t n = 0;
  for (int i = 0; i < s.pels_flow_count(); ++i)
    for (std::size_t c = 0; c < kNumColors; ++c)
      n += s.source(i).packets_sent(static_cast<Color>(c));
  return n;
}

/// Assigns a finished step to the kind whose public counter advanced. Order
/// matters where one step moves two counters: a frame clock tick also paces
/// out its first packet, so frame is tested before pace.
class DumbbellProbe {
 public:
  explicit DumbbellProbe(DumbbellScenario& s)
      : queue_(*s.pels_queue()),
        sampler_(*s.telemetry_sampler()),
        monitor_(*s.invariant_monitor()) {
    for (std::size_t i = 0; i < s.topology().link_count(); ++i)
      links_.push_back(&s.topology().link(i));
    for (int i = 0; i < s.pels_flow_count(); ++i) sources_.push_back(&s.source(i));
  }

  void reset() { last_ = read(); }

  int classify() {
    const Counters now = read();
    int kind = kOther;
    if (now.monitor != last_.monitor) kind = kMonitor;
    else if (now.sampler != last_.sampler) kind = kSampler;
    else if (now.feedback != last_.feedback) kind = kFeedback;
    else if (now.control != last_.control) kind = kControl;
    else if (now.frame != last_.frame) kind = kFrame;
    else if (now.pace != last_.pace) kind = kPace;
    else if (now.link != last_.link) kind = kLink;
    last_ = now;
    return kind;
  }

 private:
  struct Counters {
    std::uint64_t link = 0, pace = 0, frame = 0, control = 0;
    std::uint64_t feedback = 0, sampler = 0, monitor = 0;
  };

  Counters read() const {
    Counters c;
    for (const Link* l : links_) c.link += l->pipeline_events();
    for (const PelsSource* s : sources_) {
      // frames_sent() wraps with the looping sequence; any change counts.
      c.frame += static_cast<std::uint64_t>(s->frames_sent());
      c.control += s->rate_series().size();
      for (std::size_t k = 0; k < kNumColors; ++k) c.pace += s->packets_sent(static_cast<Color>(k));
    }
    c.feedback = queue_.epoch();
    c.sampler = sampler_.sample_count();
    c.monitor = monitor_.ticks();
    return c;
  }

  const PelsQueue& queue_;
  const TimeSeriesSampler& sampler_;
  const InvariantMonitor& monitor_;
  std::vector<const Link*> links_;
  std::vector<const PelsSource*> sources_;
  Counters last_;
};

Host& host_named(Topology& topo, const std::string& name) {
  for (std::size_t id = 0; id < topo.node_count(); ++id) {
    Node& n = topo.node(static_cast<NodeId>(id));
    if (n.name() == name) {
      if (auto* h = dynamic_cast<Host*>(&n)) return *h;
    }
  }
  throw std::runtime_error("dumbbell: no host named " + name);
}

/// on_packet latencies of the PELS agents wrapped for the traced window.
struct AgentSpans {
  Histogram source_on_ack;
  Histogram sink_on_packet;
};

/// What one batch produced.
struct Batch {
  double setup_s = 0.0;   // calibrated
  double window_s = 0.0;  // calibrated
  std::uint64_t delivered = 0;  // PELS sink packets in the window
  std::uint64_t events = 0;     // scheduler events in the window
  std::uint64_t allocs = 0;
  std::uint64_t cascades = 0;
  std::uint64_t stale = 0;
  LinkTotals links;
  // Outcome (identical in every batch of one seed).
  std::uint64_t sent = 0;
  std::uint64_t band_arrivals[3] = {};  // at the PELS bottleneck: green, yellow, red
  std::uint64_t band_drops[3] = {};
  double mean_rate_bps = 0.0;
  double r_star_bps = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t frames_base_failed = 0;
  double psnr_sum_db = 0.0;
  std::uint64_t violations = 0;
};

Batch run_batch(const Options& opt, StepTracer* tracer, AgentSpans* spans) {
  const Span span = span_for(opt);
  const ScenarioConfig cfg = make_config(opt, span);
  Batch b;

  const auto t0 = Clock::now();
  DumbbellScenario s(cfg);
  b.setup_s = seconds_between(t0, Clock::now());

  s.run_until(span.warmup);

  const ColorCounters q0 = s.pels_queue()->pels_group_counters();
  const std::uint64_t delivered0 = pels_delivered(s);
  const std::uint64_t sent0 = pels_sent(s);
  const Scheduler::Stats st0 = s.sim().scheduler().stats();
  const LinkTotals links0 = link_totals(s.topology());

  const SimTime t_end = span.warmup + span.window;
  std::vector<std::unique_ptr<TimedAgent>> wrappers;
  std::vector<std::pair<Host*, std::pair<FlowId, Agent*>>> originals;
  if (tracer != nullptr) {
    for (int i = 0; i < s.pels_flow_count(); ++i) {
      const auto flow = static_cast<FlowId>(i);
      Host& src = host_named(s.topology(), "src" + std::to_string(i));
      Host& dst = host_named(s.topology(), "dst" + std::to_string(i));
      wrappers.push_back(std::make_unique<TimedAgent>(s.source(i), *tracer,
                                                      spans->source_on_ack, "pels.source"));
      src.register_agent(flow, wrappers.back().get());
      originals.push_back({&src, {flow, &s.source(i)}});
      wrappers.push_back(std::make_unique<TimedAgent>(s.sink(i), *tracer, spans->sink_on_packet,
                                                      "pels.sink"));
      dst.register_agent(flow, wrappers.back().get());
      originals.push_back({&dst, {flow, &s.sink(i)}});
    }
  }

  const double ref_before = reference_kernel_seconds();
  const std::uint64_t allocs0 = heap_allocs();
  const auto w0 = Clock::now();
  if (tracer != nullptr) {
    DumbbellProbe probe(s);
    traced_run_until(s.sim().scheduler(), t_end, probe, *tracer);
  } else {
    s.run_until(t_end);
  }
  b.window_s = seconds_between(w0, Clock::now());
  b.allocs = heap_allocs() - allocs0;
  const double scale = calibration(ref_before, reference_kernel_seconds());
  b.setup_s *= scale;
  b.window_s *= scale;

  for (const auto& [host, reg] : originals) host->register_agent(reg.first, reg.second);

  const Scheduler::Stats st1 = s.sim().scheduler().stats();
  const LinkTotals links1 = link_totals(s.topology());
  const ColorCounters& q1 = s.pels_queue()->pels_group_counters();
  b.delivered = pels_delivered(s) - delivered0;
  b.sent = pels_sent(s) - sent0;
  b.events = st1.executed - st0.executed;
  b.cascades = st1.cascades - st0.cascades;
  b.stale = st1.stale_skipped - st0.stale_skipped;
  b.links.pipeline_events = links1.pipeline_events - links0.pipeline_events;
  b.links.delivered = links1.delivered - links0.delivered;
  for (std::size_t c = 0; c < 3; ++c) {
    b.band_arrivals[c] = q1.arrivals[c] - q0.arrivals[c];
    b.band_drops[c] = q1.drops[c] - q0.drops[c];
  }

  s.finish();
  double rate_sum = 0.0;
  for (int i = 0; i < s.pels_flow_count(); ++i) {
    rate_sum += s.source(i).rate_series().mean_in(span.warmup, t_end);
    for (const FrameQuality& fq : s.sink(i).frame_qualities()) {
      if (fq.completed_at < span.warmup || fq.completed_at > t_end) continue;
      ++b.frames;
      if (!fq.base_ok) ++b.frames_base_failed;
      b.psnr_sum_db += fq.psnr_db;
    }
  }
  b.mean_rate_bps = rate_sum / s.pels_flow_count();
  b.r_star_bps = s.video_capacity_bps() / s.pels_flow_count() + cfg.mkc.alpha_bps / cfg.mkc.beta;
  b.violations = s.invariant_monitor()->violation_count();
  return b;
}

}  // namespace

void run_dumbbell(const Options& opt, Report& r, StepTracer& tracer) {
  AgentSpans spans;
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  const auto start = Clock::now();
  // Untraced and traced batches alternate in a traced run, so machine drift
  // hits both sides of trace.overhead_frac equally.
  const std::size_t min_batches = opt.smoke ? 1 : 3;
  while (plain.size() < min_batches || seconds_between(start, Clock::now()) < opt.seconds) {
    plain.push_back(run_batch(opt, nullptr, nullptr));
    if (opt.trace) traced.push_back(run_batch(opt, &tracer, &spans));
  }

  const Batch& first = plain.front();
  std::vector<double> setup;
  std::vector<double> ns_per_pkt;
  for (const Batch& b : plain) {
    setup.push_back(b.setup_s);
    ns_per_pkt.push_back(1e9 * b.window_s / static_cast<double>(b.delivered));
  }
  for (const Batch& b : traced) setup.push_back(b.setup_s);

  const double green_drop_frac = ratio(static_cast<double>(first.band_drops[0]),
                                       static_cast<double>(first.band_arrivals[0]));
  const double rate_err_frac = std::abs(first.mean_rate_bps - first.r_star_bps) / first.r_star_bps;

  for (const Batch& b : plain) {
    r.check(b.violations == 0, "dumbbell: invariant monitor recorded violations");
    r.check(b.delivered > 0, "dumbbell: no PELS packet delivered in the window");
    r.check(b.delivered == first.delivered && b.events == first.events,
            "dumbbell: a batch with the same seed diverged from the first");
  }
  r.check(green_drop_frac <= kMaxGreenDropFrac,
          "dumbbell: green_drop_frac " + std::to_string(green_drop_frac) + " above limit");
  r.check(rate_err_frac <= kMaxRateErrFrac,
          "dumbbell: rate error " + std::to_string(rate_err_frac) + " from Lemma 6 above limit");

  if (!opt.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("ns_per_delivered_pkt", median(ns_per_pkt), "ns");
    r.samples.push_back({"ns_per_delivered_pkt", ns_per_pkt});
    r.samples.push_back({"setup_s", setup});
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("green_kept_frac", 1.0 - green_drop_frac, "ratio");
    r.set("delivered_frac", ratio(static_cast<double>(first.delivered),
                                  static_cast<double>(first.sent)),
          "ratio");
    r.set("rate_accuracy_frac", 1.0 - rate_err_frac, "ratio");
    r.set("frame_ok_frac",
          1.0 - ratio(static_cast<double>(first.frames_base_failed),
                      static_cast<double>(first.frames)),
          "ratio");
    r.set("mean_psnr_db", ratio(first.psnr_sum_db, static_cast<double>(first.frames)), "dB");
    return;
  }

  std::vector<double> traced_ns;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  for (const Batch& b : traced) {
    traced_ns.push_back(1e9 * b.window_s / static_cast<double>(b.delivered));
    delivered += b.delivered;
    events += b.events;
    r.check(b.delivered == first.delivered && b.events == first.events,
            "dumbbell: tracing perturbed the simulation");
  }
  r.check(tracer.total_events() == events,
          "dumbbell: traced steps do not add up to the scheduler's executed count");

  const auto per_pkt = [&](double v) { return ratio(v, static_cast<double>(delivered)); };
  const auto mean_self = [&](int k) { return tracer.kind(k).self.mean(); };
  std::uint64_t allocs = 0;
  std::uint64_t plain_delivered = 0;
  for (const Batch& b : plain) {
    allocs += b.allocs;
    plain_delivered += b.delivered;
  }

  r.set("sim.events_per_pkt", per_pkt(static_cast<double>(tracer.total_events())), "count");
  r.set("sim.step_ns.p50", tracer.steps().quantile(0.50), "ns");
  r.set("sim.step_ns.p99", tracer.steps().quantile(0.99), "ns");
  r.set("sim.cascades_per_kevent", 1e3 * ratio(static_cast<double>(first.cascades),
                                               static_cast<double>(first.events)),
        "count");
  r.set("sim.stale_per_kevent", 1e3 * ratio(static_cast<double>(first.stale),
                                            static_cast<double>(first.events)),
        "count");
  r.set("sim.allocs_per_pkt", ratio(static_cast<double>(allocs),
                                    static_cast<double>(plain_delivered)),
        "count");
  r.set("net.link.events_per_pkt_hop", ratio(static_cast<double>(first.links.pipeline_events),
                                             static_cast<double>(first.links.delivered)),
        "count");
  r.set("net.link.self_ns_per_pkt", per_pkt(tracer.kind(kLink).self_ns), "ns");
  const char* const bands[3] = {"green", "yellow", "red"};
  for (std::size_t c = 0; c < 3; ++c) {
    r.set(std::string("queue.drop_frac.") + bands[c],
          ratio(static_cast<double>(first.band_drops[c]),
                static_cast<double>(first.band_arrivals[c])),
          "ratio");
  }
  r.set("queue.feedback.self_ns_per_epoch", mean_self(kFeedback), "ns");
  r.set("pels.source.on_ack_ns.p50", spans.source_on_ack.quantile(0.50), "ns");
  r.set("pels.source.on_ack_ns.p99", spans.source_on_ack.quantile(0.99), "ns");
  r.set("pels.sink.on_packet_ns.p50", spans.sink_on_packet.quantile(0.50), "ns");
  r.set("pels.sink.on_packet_ns.p99", spans.sink_on_packet.quantile(0.99), "ns");
  r.set("pels.frame.self_ns", mean_self(kFrame), "ns");
  r.set("pels.pace.self_ns", mean_self(kPace), "ns");
  r.set("pels.control.self_ns", mean_self(kControl), "ns");
  for (int k = 0; k < kNumKinds; ++k) {
    r.set(std::string("pels.events_per_pkt.") + kind_name(k),
          per_pkt(static_cast<double>(tracer.kind(k).events)), "count");
  }
  r.set("telemetry.sample.self_ns", mean_self(kSampler), "ns");
  r.set("sim.monitor.tick.self_ns", mean_self(kMonitor), "ns");
  r.set("trace.overhead_frac", median(traced_ns) / median(ns_per_pkt) - 1.0, "ratio");
}

}  // namespace perfbench
