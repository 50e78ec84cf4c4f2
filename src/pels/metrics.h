// Metrics export: one long-format CSV per run with every trajectory the
// scenario recorded, for external plotting/analysis.
//
//   t_seconds,metric,index,value
//   1.0,rate_bps,0,1041234.5
//   1.0,gamma,0,0.148
//   1.0,queue_loss_red,-1,0.74
//   ...
//
// Per-packet delay samples are aggregated into per-window means so traces
// stay small; everything else is exported verbatim. Aggregation happens at
// write time from the series the scenario/sources/sinks already keep — no
// extra timers run during the simulation.
#pragma once

#include <string>

#include "pels/scenario.h"

namespace pels {

/// Writes all recorded trajectories of `scenario` as long-format CSV.
/// Returns false on I/O failure. Metrics emitted:
///   rate_bps, gamma, measured_fgs_loss         (per flow; index = flow)
///   queue_loss_green/yellow/red, queue_fgs_loss (index = -1)
///   delay_green_ms/delay_yellow_ms/delay_red_ms (per flow, 1 s window means)
bool write_metrics_csv(DumbbellScenario& scenario, const std::string& path);

}  // namespace pels
