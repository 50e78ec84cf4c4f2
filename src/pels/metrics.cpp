#include "pels/metrics.h"

#include <fstream>

namespace pels {

namespace {

void emit_series(std::ofstream& out, const TimeSeries& series, const char* metric,
                 int index) {
  for (const auto& point : series.points()) {
    out << to_seconds(point.t) << ',' << metric << ',' << index << ',' << point.value
        << '\n';
  }
}

void emit_delay_windows(std::ofstream& out, const TimeSeries& series, const char* metric,
                        int index) {
  constexpr SimTime window = kSecond;
  if (series.empty()) return;
  const SimTime end = series[series.size() - 1].t;
  for (SimTime t0 = 0; t0 <= end; t0 += window) {
    const double mean = series.mean_in(t0, t0 + window - 1);
    if (mean > 0.0) {
      out << to_seconds(t0 + window) << ',' << metric << ',' << index << ','
          << mean * 1e3 << '\n';
    }
  }
}

}  // namespace

bool write_metrics_csv(DumbbellScenario& scenario, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "t_seconds,metric,index,value\n";

  for (int i = 0; i < scenario.pels_flow_count(); ++i) {
    emit_series(out, scenario.source(i).rate_series(), "rate_bps", i);
    emit_series(out, scenario.source(i).gamma_series(), "gamma", i);
    emit_series(out, scenario.source(i).loss_series(), "measured_fgs_loss", i);
  }
  emit_series(out, scenario.loss_series(Color::kGreen), "queue_loss_green", -1);
  emit_series(out, scenario.loss_series(Color::kYellow), "queue_loss_yellow", -1);
  emit_series(out, scenario.loss_series(Color::kRed), "queue_loss_red", -1);
  emit_series(out, scenario.fgs_loss_series(), "queue_fgs_loss", -1);

  for (int i = 0; i < scenario.pels_flow_count(); ++i) {
    emit_delay_windows(out, scenario.sink(i).delay_series(Color::kGreen), "delay_green_ms", i);
    emit_delay_windows(out, scenario.sink(i).delay_series(Color::kYellow), "delay_yellow_ms", i);
    emit_delay_windows(out, scenario.sink(i).delay_series(Color::kRed), "delay_red_ms", i);
  }
  return static_cast<bool>(out);
}

}  // namespace pels
