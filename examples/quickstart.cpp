// Quickstart: one PELS video flow (plus TCP cross traffic) over the paper's
// 4 mb/s bar-bell bottleneck. Prints the rate, gamma, measured-loss, and
// red-loss trajectories, then a per-colour delivery summary.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart [flows] [seconds]
//                    [--seed N] [--tcp N] [--rd-scaling]
//                    [--telemetry-csv FILE | --telemetry-json FILE]
#include <climits>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pels/metrics.h"
#include "pels/scenario.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

namespace {

constexpr const char* kUsage =
    "usage: quickstart [flows] [seconds] [--seed N] [--tcp N] [--rd-scaling]\n"
    "                  [--csv FILE] [--telemetry-csv FILE | --telemetry-json FILE]\n"
    "  flows >= 1, seconds: simulated time, 1 ns to one day (1e-9 to 86400),\n"
    "  --seed >= 0, --tcp: TCP cross flows >= 0\n";

/// Bad command line: the message, the usage line, exit status 2.
int usage_error(const std::string& what) {
  std::cerr << "quickstart: " << what << "\n" << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> valued = {"seed", "tcp", "csv", "telemetry-csv", "telemetry-json"};
  const StrictCliArgs args(argc, argv, {"rd-scaling"}, valued, /*max_positional=*/2);
  const int flows = static_cast<int>(args.positional_int(0, "flows", 1, 1, INT_MAX));
  const double seconds = args.positional_double(1, "seconds", 30.0, 1e-9, 86400.0);
  const int tcp_flows = static_cast<int>(args.get_int("tcp", 1, 0, INT_MAX));
  const long long seed = args.get_int("seed", 1, /*min=*/0);
  const std::string tel_csv = args.get_string("telemetry-csv", "");
  const std::string tel_json = args.get_string("telemetry-json", "");
  const std::string csv = args.get_string("csv", "");
  if (args.reject("quickstart", kUsage)) return 2;

  ScenarioConfig cfg;
  cfg.pels_flows = flows;
  cfg.tcp_flows = tcp_flows;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.rd_aware_scaling = args.has("rd-scaling");

  // Declarative telemetry (DESIGN.md "Telemetry"): asking for an export file
  // flips the scenario switch; everything else is wired by the scenario.
  if (!tel_csv.empty() || !tel_json.empty()) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.max_samples =
        static_cast<std::size_t>(from_seconds(seconds) / cfg.telemetry.period) + 16;
  }

  std::optional<DumbbellScenario> scenario;
  try {
    scenario.emplace(cfg);
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  DumbbellScenario& s = *scenario;
  std::cout << "PELS quickstart: " << flows << " video flow(s) + " << tcp_flows << " TCP flow"
            << (tcp_flows == 1 ? "" : "s") << ", "
            << "bottleneck 4 mb/s (PELS share " << s.video_capacity_bps() / 1e6
            << " mb/s), " << seconds << " s simulated\n\n";

  TablePrinter table(
      {"t (s)", "rate_0 (kb/s)", "gamma_0", "fgs loss", "red loss", "yellow loss"});
  for (double t = 1.0; t <= seconds; t += 1.0) {
    s.run_until(from_seconds(t));
    table.add_row(
        {TablePrinter::fmt(t, 0), TablePrinter::fmt(s.source(0).rate_bps() / 1e3, 1),
         TablePrinter::fmt(s.source(0).gamma(), 3),
         TablePrinter::fmt(s.source(0).measured_loss(), 3),
         TablePrinter::fmt(s.loss_series(Color::kRed).value_at(from_seconds(t)), 3),
         TablePrinter::fmt(s.loss_series(Color::kYellow).value_at(from_seconds(t)), 3)});
  }
  s.finish();
  table.print(std::cout);

  print_banner(std::cout, "Delivery summary (flow 0)");
  TablePrinter sum({"colour", "sent", "received", "mean one-way delay (ms)"});
  for (Color c : {Color::kGreen, Color::kYellow, Color::kRed}) {
    sum.add_row({color_name(c),
                 TablePrinter::fmt_int(static_cast<long long>(s.source(0).packets_sent(c))),
                 TablePrinter::fmt_int(static_cast<long long>(s.sink(0).packets_received(c))),
                 TablePrinter::fmt(s.sink(0).delay_samples(c).mean() * 1e3, 1)});
  }
  sum.print(std::cout);

  std::cout << "\nmean FGS utility (useful/received): " << s.sink(0).mean_utility() << "\n"
            << "frames decoded: " << s.sink(0).frame_qualities().size() << "\n";

  if (!csv.empty()) {
    if (write_metrics_csv(s, csv)) {
      std::cout << "metrics written to " << csv << "\n";
    } else {
      std::cerr << "failed to write " << csv << "\n";
      return 1;
    }
  }
  const auto export_telemetry = [&s](const std::string& path, bool json) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "failed to write " << path << "\n";
      return false;
    }
    if (json) {
      s.telemetry_sampler()->write_json(os);
    } else {
      s.telemetry_sampler()->write_csv(os);
    }
    std::cout << "telemetry (" << s.metrics()->size() << " instruments, "
              << s.telemetry_sampler()->sample_count() << " samples) written to "
              << path << "\n";
    return true;
  };
  if (!tel_csv.empty() && !export_telemetry(tel_csv, /*json=*/false)) return 1;
  if (!tel_json.empty() && !export_telemetry(tel_json, /*json=*/true)) return 1;
  return 0;
}
