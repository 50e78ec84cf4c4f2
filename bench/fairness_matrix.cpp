// Fairness matrix: mixed congestion-control ecosystems at one PELS
// bottleneck (see src/exp/fairness.h for the cell definition).
//
// Runs the committed scenario set — per-pair coexistence against MKC, RTT
// diversity (~10-200 ms base RTTs), asymmetric class ratios, TCP cross
// traffic — and writes BENCH_fairness.json (schema v1, gated in CI by
// tools/bench_compare.py). Domain violations (Jain index outside [0, 1],
// shares not summing to 1, non-monotone delay percentiles, zero frames
// decoded) are hard failures here, in the binary: a broken run must not
// produce a plausible-looking JSON for the gate to bless.
//
// Usage: fairness_matrix [--smoke] [--json PATH] [--label NAME]
//   --smoke runs the 3-cell short-duration subset for CI.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/fairness.h"
#include "exp/sweep.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

namespace {

int failures = 0;

void check(bool ok, const std::string& cell, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL [" << cell << "]: " << what << "\n";
}

void validate_cell(const FairnessCellResult& r) {
  check(std::isfinite(r.jain_video) && r.jain_video >= 0.0 && r.jain_video <= 1.0,
        r.label, "jain_video outside [0, 1]");
  check(r.base_protection >= 0.0 && r.base_protection <= 1.0, r.label,
        "base_protection outside [0, 1]");
  check(r.base_protection > 0.0, r.label,
        "no flow finalized any frames (cell too short or source stalled)");
  const double share_sum = r.share_a + r.share_b + r.share_tcp;
  check(std::abs(share_sum - 1.0) < 1e-9, r.label,
        "class shares sum to " + std::to_string(share_sum) + ", expected 1");
  check(r.delay_p50_ms <= r.delay_p95_ms && r.delay_p95_ms <= r.delay_p99_ms, r.label,
        "delay percentiles not monotone");
  check(r.delay_p50_ms > 0.0, r.label, "no green delay samples");
  for (const double g : r.video_goodputs_bps)
    check(std::isfinite(g) && g >= 0.0, r.label, "video goodput not finite/non-negative");
  for (const double g : r.tcp_goodputs_bps)
    check(std::isfinite(g) && g >= 0.0, r.label, "tcp goodput not finite/non-negative");
}

void json_doubles(std::ofstream& json, const std::vector<double>& v) {
  json << "[";
  for (std::size_t i = 0; i < v.size(); ++i) json << (i ? ", " : "") << v[i];
  json << "]";
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: fairness_matrix [--smoke] [--json PATH] [--label NAME]";
  const StrictCliArgs cli(argc, argv, {"smoke"}, {"json", "label"});
  const bool smoke = cli.has("smoke");
  const std::string json_path = cli.get_string("json", "BENCH_fairness.json");
  const std::string label = cli.get_string("label", "now");
  if (cli.reject("fairness_matrix", kUsage)) return 2;

  const std::vector<FairnessCellConfig> cells = default_fairness_matrix(smoke);
  print_banner(std::cout, smoke ? "Fairness matrix (smoke subset)"
                                : "Fairness matrix: CC ecosystem coexistence");

  std::vector<std::function<FairnessCellResult()>> tasks;
  tasks.reserve(cells.size());
  for (const auto& cell : cells)
    tasks.push_back([cell] { return run_fairness_cell(cell); });
  SweepRunner runner;
  auto outcomes = runner.run(std::move(tasks));

  std::vector<FairnessCellResult> results;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      ++failures;
      std::cerr << "FAIL [" << cells[i].label << "]: threw: " << outcomes[i].error
                << "\n";
      continue;
    }
    results.push_back(*outcomes[i].value);
  }

  TablePrinter table({"cell", "jain", "share A", "share B", "share TCP",
                      "base prot", "p50 ms", "p95 ms", "p99 ms", "marks"});
  double min_jain = 1.0;
  double min_protection = 1.0;
  for (const auto& r : results) {
    validate_cell(r);
    min_jain = std::min(min_jain, r.jain_video);
    min_protection = std::min(min_protection, r.base_protection);
    table.add_row({r.label, TablePrinter::fmt(r.jain_video, 3),
                   TablePrinter::fmt(r.share_a, 3), TablePrinter::fmt(r.share_b, 3),
                   TablePrinter::fmt(r.share_tcp, 3),
                   TablePrinter::fmt(r.base_protection, 3),
                   TablePrinter::fmt(r.delay_p50_ms, 1),
                   TablePrinter::fmt(r.delay_p95_ms, 1),
                   TablePrinter::fmt(r.delay_p99_ms, 1), std::to_string(r.ecn_marks)});
  }
  table.print(std::cout);

  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"fairness_matrix\",\n"
       << "  \"label\": \"" << label << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"label\": \"" << r.label << "\", \"jain_video\": " << r.jain_video
         << ", \"share_a\": " << r.share_a << ", \"share_b\": " << r.share_b
         << ", \"share_tcp\": " << r.share_tcp
         << ", \"base_protection\": " << r.base_protection
         << ", \"delay_p50_ms\": " << r.delay_p50_ms
         << ", \"delay_p95_ms\": " << r.delay_p95_ms
         << ", \"delay_p99_ms\": " << r.delay_p99_ms
         << ", \"ecn_marks\": " << r.ecn_marks << ", \"video_goodputs_bps\": ";
    json_doubles(json, r.video_goodputs_bps);
    json << ", \"tcp_goodputs_bps\": ";
    json_doubles(json, r.tcp_goodputs_bps);
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"summary\": {\"cells\": " << results.size()
       << ", \"min_jain\": " << min_jain
       << ", \"min_base_protection\": " << min_protection << "}\n"
       << "}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";

  if (failures > 0) {
    std::cerr << failures << " fairness-matrix check(s) failed\n";
    return 1;
  }
  std::cout << "all in-binary fairness checks passed (min Jain "
            << TablePrinter::fmt(min_jain, 3) << ", min base protection "
            << TablePrinter::fmt(min_protection, 3) << ")\n";
  return 0;
}
