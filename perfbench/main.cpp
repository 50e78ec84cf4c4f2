// perfbench: the repo benchmark binary. Runs one workload for a wall-clock
// budget and prints its metrics; run.py builds it and turns the last line
// into the benchmark's result.
//
// Usage: perfbench --workload dumbbell|population-1m|fattree-churn
//                  --seed N --seconds S --trace 0|1 [--smoke]
//                  [--trace-out spans.csv]
//
// The last line of stdout is one JSON object: the machine fingerprint, the
// output checks (attempted/failed, with the failure messages) and every
// measured metric with its unit. Exits 1 when a check failed, 2 on bad
// arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

namespace {

using namespace perfbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return false;
        opt.trace = v == "1";
      } else if (a == "--trace-out" && has_value) {
        opt.trace_out = argv[++i];
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (opt.workload == "dumbbell" || opt.workload == "population-1m" ||
          opt.workload == "fattree-churn") &&
         std::isfinite(opt.seconds) && opt.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload dumbbell|population-1m|fattree-churn --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--trace-out PATH]\n";
    return 2;
  }
  // Only fattree-churn runs threads: at most min(nproc, 4) DomainRunner
  // workers. The runner clamps further to the domain count.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt.workers = opt.workload == "fattree-churn" ? std::min(hw, 4u) : 1u;

  Report report;
  StepTracer tracer;
  reference_kernel_seconds();  // first touch of the calibration table
  try {
    if (opt.workload == "dumbbell") run_dumbbell(opt, report, tracer);
    else if (opt.workload == "population-1m") run_population(opt, report, tracer);
    else run_fattree(opt, report);
  } catch (const std::exception& e) {
    report.check(false, opt.workload + ": " + e.what());
  }
  for (const Report::Metric& m : report.metrics) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  if (opt.trace && !opt.trace_out.empty() && tracer.total_events() > 0) {
    report.check(tracer.write_spans(opt.trace_out), "could not write spans to " + opt.trace_out);
  }

  for (const Report::Metric& m : report.metrics)
    std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  for (const auto& [name, values] : report.samples) {
    std::cout << "samples " << name << ":";
    for (const double v : values) std::cout << " " << json_number(v);
    std::cout << "\n";
  }
  for (const std::string& f : report.failures) std::cout << "FAILED: " << f << "\n";

  std::string line = "{\"fingerprint\": {\"cpu_model\": " + json_string(cpu_model()) +
                     ", \"nproc\": " + std::to_string(hw) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"domain_workers\": " + std::to_string(opt.workers) +
                     ", \"seed\": " + std::to_string(opt.seed) + "}";
  line += ", \"correct\": " + std::string(report.failed == 0 ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    line += (i ? ", " : "") + json_string(report.failures[i]);
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? json_number(m.value) : std::string("null")) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return report.failed == 0 ? 0 : 1;
}
