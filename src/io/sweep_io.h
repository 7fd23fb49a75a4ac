// Parsing and serialization for batch parameter sweeps (core::SweepEngine).
//
// Spec grammar (--sweep):
//   spec      := axes | json-list
//   axes      := axis '=' values (',' axis '=' values)*
//   values    := lo ':' hi ':' step      inclusive arithmetic range
//              | v (';' v)*              explicit list
//   json-list := '[' {axis: number, ...}, ... ']'
//
// An axis is a row of the options table (core/options.h) with a sweep axis
// name, spelled by that name or by the row's JSON key; each value is set
// and range-checked through the row like any front-end value.  Axes form a
// cross product with later axes varying fastest, so
// "gamma=0.1;0.2,ming=20;30" yields (0.1,20) (0.1,30) (0.2,20) (0.2,30).
// Every point starts from the caller's base MinerOptions (so flags like
// --gamma-policy carry over) with only the listed axes overridden.  JSON
// objects may set any subset of the axes; unknown keys are errors.
//
// JSON report schema (stable):
//   {
//     "sweep": {
//       "status": "complete"|"truncated", "stop_reason": "...",
//       "runs_total": N, "runs_executed": N, "first_unfinished": -1|i,
//       "index_builds": N, "shared_model_bytes": B,
//       "nodes_total": N, "clusters_total": N, "wall_seconds": S
//     },
//     "runs": [
//       {
//         "run": i,
//         "options": {"gamma": g, "gamma_policy": "...", "epsilon": e,
//                     "min_genes": m, "min_conditions": c},
//         "executed": true|false, "shared_model": true|false,
//         "error": "...",              // only on a per-point option error
//         "outcome": {"status": ..., "stop_reason": ..., "wall_seconds": S},
//         "stats": {"nodes_expanded": N, "extensions_tested": N,
//                   "clusters_emitted": N, "mine_seconds": S},
//         "num_clusters": N,           // outcome/stats/clusters only when
//         "clusters": [                // executed
//           {"chain": [...], "p_genes": [...], "n_genes": [...]}, ...
//         ]
//       }, ...
//     ]
//   }
//
// CSV summary columns (stable, one row per point):
//   run,gamma,gamma_policy,epsilon,min_genes,min_conditions,executed,
//   shared_model,status,stop_reason,clusters,nodes_expanded,
//   extensions_tested,mine_seconds,wall_seconds
// `status` is complete|truncated for executed runs, error for a per-point
// option failure, skipped for points beyond a sweep truncation; counters and
// seconds are 0 for non-executed rows.

#ifndef REGCLUSTER_IO_SWEEP_IO_H_
#define REGCLUSTER_IO_SWEEP_IO_H_

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/sweep.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace regcluster {
namespace io {

/// Expands a sweep spec into one MinerOptions per grid point, each starting
/// from `base`.  InvalidArgument on malformed specs (empty axes, unknown
/// axis, bad number, descending range, a value its row rejects, bad JSON)
/// and on a spec over `max_points` points, which is counted before any
/// point is expanded.  The default is the most a sweep report can index.
util::StatusOr<std::vector<core::MinerOptions>> ParseSweepSpec(
    const std::string& spec, const core::MinerOptions& base,
    size_t max_points = std::numeric_limits<int>::max());

/// Writes the JSON report (schema above).
util::Status WriteSweepJson(const core::SweepReport& report,
                            std::ostream& out);

/// Writes the CSV summary (columns above), header row first.
util::Status WriteSweepCsv(const core::SweepReport& report, std::ostream& out);

/// Registers sweep-level aggregates under stable names:
///   regcluster_sweep_runs_total, regcluster_sweep_runs_executed,
///   regcluster_sweep_index_builds, regcluster_sweep_shared_model_bytes,
///   regcluster_sweep_nodes_total, regcluster_sweep_clusters_total,
///   regcluster_sweep_wall_seconds, regcluster_sweep_truncated
/// Fails only on registry name conflicts.  `checkpoint` adds the
/// regcluster_checkpoint_* durability counters (registered as zeros when
/// null, so a non-durable sweep still exposes them).
util::Status RegisterSweepMetrics(const core::SweepReport& report,
                                  obs::MetricsRegistry* registry,
                                  const CheckpointStats* checkpoint = nullptr);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_SWEEP_IO_H_
