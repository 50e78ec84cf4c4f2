#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t use) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + use;
  return pels::splitmix64(state);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double reference_kernel_seconds() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 21);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 40) & (table.size() - 1)] += static_cast<std::uint32_t>(x);
  }
  const double s = seconds_between(t0, Clock::now());
  // Keeps the table writes observable so the loop is not optimized away.
  volatile std::uint32_t sink = table[static_cast<std::size_t>(x & (table.size() - 1))];
  (void)sink;
  return s;
}

double calibration(double ref_before, double ref_after) {
  return kNominalReferenceSeconds / (0.5 * (ref_before + ref_after));
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen < std::max<std::uint64_t>(rank, 1)) continue;
    constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    if (b < kSub) return static_cast<double>(b);
    // Bucket b covers [lower, lower + width): report its midpoint.
    const int shift = static_cast<int>(b / kSub) - 1;
    const double lower = static_cast<double>((kSub + b % kSub) << shift);
    const double width = static_cast<double>(std::uint64_t{1} << shift);
    return lower + width / 2.0;
  }
  return max();
}

const char* kind_name(int kind) {
  static const char* const kNames[kNumKinds] = {"link",     "pace",    "frame",   "control",
                                                "feedback", "sampler", "monitor", "other"};
  return kNames[kind];
}

StepTracer::StepTracer() : epoch_(Clock::now()) {
  spans_.reserve(kMaxSpans);
  pending_children_.reserve(256);
  pending_names_.reserve(256);
}

void StepTracer::add_child(const char* name, Clock::time_point a, Clock::time_point b) {
  step_children_ns_ += ns_between(a, b);
  if (pending_children_.size() < pending_children_.capacity()) {
    pending_children_.emplace_back(a, b);
    pending_names_.push_back(name);
  }
}

void StepTracer::end_step(int kind, Clock::time_point a, Clock::time_point b) {
  const std::int64_t dur = ns_between(a, b);
  const std::int64_t self = std::max<std::int64_t>(dur - step_children_ns_, 0);
  KindStats& k = kinds_[static_cast<std::size_t>(kind)];
  ++k.events;
  k.self_ns += static_cast<double>(self);
  k.self.add(static_cast<std::uint64_t>(self));
  steps_.add(static_cast<std::uint64_t>(dur));

  const std::uint32_t step_id = next_id_;
  keep_span(0, kind_name(kind), a, b);
  for (std::size_t i = 0; i < pending_children_.size(); ++i) {
    keep_span(step_id, pending_names_[i], pending_children_[i].first,
              pending_children_[i].second);
  }
  pending_children_.clear();
  pending_names_.clear();
  step_children_ns_ = 0;
}

void StepTracer::keep_span(std::uint32_t parent, const char* name, Clock::time_point a,
                           Clock::time_point b) {
  const std::uint32_t id = next_id_++;
  if (spans_.size() == kMaxSpans) return;  // the buffer keeps the first spans
  spans_.push_back({id, parent, name, ns_between(epoch_, a), ns_between(a, b)});
}

std::uint64_t StepTracer::total_events() const {
  std::uint64_t n = 0;
  for (const KindStats& k : kinds_) n += k.events;
  return n;
}

bool StepTracer::write_spans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id,parent,name,start_ns,dur_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns << ',' << s.dur_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
