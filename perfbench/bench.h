// Shared pieces of the repo benchmark: run options, the result report, the
// heap-allocation counter, and the step tracer used by traced runs.
//
// Tracing model (README.md "Traced run"): the benchmark drives
// Scheduler::step() itself, times every step, and assigns it to the event
// kind whose public counter advanced (a link pipeline, a source pace or
// frame clock, a control tick, ...). Agents registered on hosts are wrapped
// in TimedAgent forwarders; their spans are children of the link step that
// delivered the packet, so a step's self time is its duration minus its
// children. Spans stay in memory (a bounded buffer) and are written when the
// run ends.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/host.h"
#include "sim/scheduler.h"
#include "util/time.h"

namespace pels {
class Fabric;
class ManyFlowDriver;
class Topology;
}  // namespace pels

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // wall-clock measuring budget
  bool trace = false;
  bool smoke = false;     // tiny sizes: the benchmark's own smoke test
  unsigned workers = 1;   // DomainRunner workers (fattree-churn only)
  std::string trace_out;  // span dump path; empty = keep spans in memory only
};

/// Independent sub-seed for one use of the workload seed (scenario, fabric,
/// each traffic mix), so a single --seed derives every input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t use);

/// Total global operator new calls so far (alloc_count.cpp interposes them
/// for this binary only).
std::uint64_t heap_allocs();

/// Process peak resident set, MB (getrusage).
double peak_rss_mb();

double median(std::vector<double> v);

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Machine-speed calibration (README.md "Calibrated timings"). The host's
/// speed drifts by 10-20% from minute to minute under neighbouring load, so
/// every end-to-end time is scaled to a nominal machine: a fixed kernel
/// owned by this benchmark (random read-modify-writes over an 8 MB table,
/// no simulator code) is timed before and after each measured stretch, and
/// the stretch's wall time is multiplied by kNominalReferenceSeconds over
/// the kernel's mean time. Simulator changes cannot move the kernel.
inline constexpr double kNominalReferenceSeconds = 0.006;
double reference_kernel_seconds();
double calibration(double ref_before, double ref_after);

/// Metrics and output checks of one run. Every check is an operation:
/// `attempted` counts them and a failing one marks the run failed.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Per-batch (or per-window) values behind a reported median, printed
  /// for diagnosis.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit);
  bool check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------- tracing

/// Fixed-memory log-linear latency histogram: exact below 32 ns, then 32
/// sub-buckets per power of two (~3% resolution). Adding never allocates.
class Histogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++n_;
    sum_ += static_cast<double>(v);
    if (v > max_) max_ = v;
  }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double max() const { return static_cast<double>(max_); }
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static std::size_t bucket(std::uint64_t v) {
    if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return static_cast<std::size_t>(msb - kSubBits + 1) * (1u << kSubBits) + sub;
  }
  std::array<std::uint64_t, 64 * (1u << kSubBits)> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  std::uint64_t max_ = 0;
};

/// Event kinds a traced step is assigned to (README.md "Step attribution").
enum Kind : int {
  kLink,
  kPace,
  kFrame,
  kControl,
  kFeedback,
  kSampler,
  kMonitor,
  kOther,
  kNumKinds
};
const char* kind_name(int kind);

class StepTracer {
 public:
  StepTracer();

  struct KindStats {
    std::uint64_t events = 0;
    double self_ns = 0.0;
    Histogram self;  // per-event self time
  };

  /// Called by TimedAgent: a child span inside the current step.
  void add_child(const char* name, Clock::time_point a, Clock::time_point b);
  /// Accounts one executed step of `kind` that ran over [a, b].
  void end_step(int kind, Clock::time_point a, Clock::time_point b);

  const KindStats& kind(int k) const { return kinds_[static_cast<std::size_t>(k)]; }
  const Histogram& steps() const { return steps_; }
  std::uint64_t total_events() const;

  /// Writes the span buffer as CSV (id,parent,name,start_ns,dur_ns).
  bool write_spans(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root (a scheduler step)
    const char* name;
    std::int64_t start_ns;  // relative to the tracer's epoch
    std::int64_t dur_ns;
  };
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 17;

  void keep_span(std::uint32_t parent, const char* name, Clock::time_point a,
                 Clock::time_point b);

  std::array<KindStats, kNumKinds> kinds_;
  Histogram steps_;
  std::int64_t step_children_ns_ = 0;  // child time inside the running step
  std::vector<Span> spans_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> pending_children_;
  std::vector<const char*> pending_names_;
  std::uint32_t next_id_ = 1;
  Clock::time_point epoch_;
};

/// Timing forwarder registered in place of a host agent: the wrapped
/// agent's on_packet becomes a child span of the step that delivered it.
class TimedAgent final : public pels::Agent {
 public:
  TimedAgent(pels::Agent& inner, StepTracer& tracer, Histogram& hist, const char* name)
      : inner_(&inner), tracer_(&tracer), hist_(&hist), name_(name) {}

  void on_packet(const pels::Packet& pkt) override {
    const auto a = Clock::now();
    inner_->on_packet(pkt);
    const auto b = Clock::now();
    hist_->add(static_cast<std::uint64_t>(ns_between(a, b)));
    tracer_->add_child(name_, a, b);
  }

 private:
  pels::Agent* inner_;
  StepTracer* tracer_;
  Histogram* hist_;
  const char* name_;
};

/// Drives `sched` to `t_end` one step at a time, timing each step and
/// assigning it to the kind `probe.classify()` reports (the probe compares
/// public counters before and after the step). Ends with the clock at
/// t_end, as Scheduler::run_until does.
template <class Probe>
void traced_run_until(pels::Scheduler& sched, pels::SimTime t_end, Probe& probe,
                      StepTracer& tracer) {
  probe.reset();
  while (sched.peek_next_time() <= t_end) {
    const auto a = Clock::now();
    sched.step();
    const auto b = Clock::now();
    tracer.end_step(probe.classify(), a, b);
  }
  sched.run_until(t_end);
}

// ---------------------------------------------------------------- counters

/// Link pipeline events and packet-hops summed over every link.
struct LinkTotals {
  std::uint64_t pipeline_events = 0;
  std::uint64_t delivered = 0;
};
LinkTotals link_totals(pels::Topology& topo);

/// Cumulative counters of a fabric: its links, and the per-colour
/// arrivals/drops summed over every bottleneck PelsQueue (0 green, 1
/// yellow, 2 red).
struct FabricTotals {
  LinkTotals links;
  std::uint64_t band_arrivals[3] = {};
  std::uint64_t band_drops[3] = {};

  FabricTotals operator-(const FabricTotals& o) const;
};
FabricTotals fabric_totals(pels::Fabric& fabric);

/// Packet conservation from public counters: every packet the driver sent
/// is delivered to a sink, dropped, queued, on a wire, or in a cross-domain
/// handoff (link deliveries not yet received by their node). Each link
/// must also conserve its own arrivals. Fills `detail` on failure.
bool check_conservation(pels::Fabric& fabric, const pels::ManyFlowDriver& driver,
                        std::string* detail);

/// The fabric workloads carry no frames (ManyFlowDriver colours packets, it
/// does not encode video): frame_ok_frac and mean_psnr_db are printed as
/// the lossless reference values, 1 and the R-D model's full-rate PSNR.
void set_no_video_metrics(Report& report);

// ---------------------------------------------------------------- workloads

void run_dumbbell(const Options& opt, Report& report, StepTracer& tracer);
void run_population(const Options& opt, Report& report, StepTracer& tracer);
void run_fattree(const Options& opt, Report& report);

}  // namespace perfbench
