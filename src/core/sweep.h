// Batch parameter-sweep engine: many Mine() calls over one matrix, sharing
// everything that is semantically shareable.
//
// The paper's entire Section 5 evaluation is parameter sweeps -- sensitivity
// of cluster counts and runtime to gamma, epsilon, MinG and MinC -- and a
// production deployment serves many such requests against one loaded matrix.
// Running each point as an independent mine repeats three costs that do not
// depend on the point: loading the matrix, building the per-gene RWave^gamma
// models, and baking the successor-bitmap index.  The engine amortizes them:
//
//   * the matrix is borrowed once for the whole sweep;
//   * points with the same (gamma_policy, gamma) share one immutable
//     SharedGammaModel, built with the *largest* MinC of the group -- index
//     eligibility queries clamp, so the shared index answers every smaller
//     MinC bit-identically (see rwave_index.h);
//   * all runs' phase-A root/subtree tasks interleave on one work-stealing
//     TaskPool (inter-run parallelism composing with intra-run tasks), via
//     the miner's staged Prepare / SubmitParallelWork / Finalize API.
//
// Determinism contract: every executed run's clusters are byte-identical to
// an independent RegClusterMiner::Mine() at that point's options, at any
// thread count (sweep_test verifies at 1/2/4).  Sweep-level count budgets
// are enforced at *run boundaries* from each run's deterministic totals, so
// a budget-truncated sweep covers the same canonical prefix of points at any
// thread count; SweepReport::first_unfinished is the resume point (re-run
// the remaining points, as a truncated mine resumes by mining the roots it
// did not include).
//
// Budget composition ("one guard spanning the sweep, per-run sub-budgets"):
// each run keeps its own BudgetGuard built from its point's limits; the
// engine overlays the sweep-level limits around it --
//   * sweep max_nodes / max_clusters: checked after each run finalizes,
//     against the run's deterministic totals.  The first run that does not
//     fit is excluded whole (its partial work is discarded) and the sweep
//     truncates at that boundary.  Runs already in flight on the pool when
//     the budget runs out are wasted speculation, never wrong output.
//   * sweep deadline / cancel token: injected into every run that does not
//     carry its own, so a hard stop interrupts mid-run; the interrupted run
//     is excluded and the sweep truncates at its boundary.  (Hard-stop cut
//     points are machine-dependent, exactly as for a single mine.)

#ifndef REGCLUSTER_CORE_SWEEP_H_
#define REGCLUSTER_CORE_SWEEP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/miner.h"
#include "matrix/store.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace regcluster {
namespace core {

/// Sweep-level execution knobs.  The per-point mining semantics live in each
/// point's MinerOptions; everything here is an execution overlay.
struct SweepOptions {
  /// Worker threads for the shared pool; 1 = fully serial, 0 = hardware
  /// concurrency.  Per-point MinerOptions::num_threads is ignored -- the
  /// engine owns scheduling (the output is thread-count-invariant anyway).
  int num_threads = 1;

  /// Share one model/index per distinct (gamma_policy, gamma).  Off builds
  /// per-run models exactly like independent mines (for A/B measurement).
  bool share_models = true;

  /// Sweep-level budgets; -1 / null disables each.  See the file comment
  /// for how they compose with per-point budgets.
  int64_t max_nodes = -1;
  int64_t max_clusters = -1;
  double deadline_ms = -1.0;
  std::shared_ptr<util::CancellationToken> cancel_token;
};

/// One grid point's result.  `executed` is the authoritative flag: when
/// false (sweep truncated before or at this run, or `status` holds a
/// per-point validation error) the clusters/stats/outcome fields are empty.
struct SweepRun {
  /// The options as executed: the point's options plus the engine-injected
  /// shared model / cancel token / deadline overlay.
  MinerOptions options;
  /// Per-point validation result (e.g. a gamma out of range fails that
  /// point, not the sweep).
  util::Status status;
  bool executed = false;
  /// True when this run reused an engine-built SharedGammaModel (its stats
  /// then report index_builds == 0).
  bool used_shared_model = false;
  std::vector<RegCluster> clusters;
  MinerStats stats;
  MineOutcome outcome;
};

/// Aggregated result of SweepEngine::Run().
struct SweepReport {
  /// Same length and order as the input points.
  std::vector<SweepRun> runs;
  /// kTruncated iff a sweep-level budget/deadline/cancel cut the sweep; a
  /// per-point soft failure (bad options) does not truncate.
  MineStatus status = MineStatus::kComplete;
  util::StopReason stop_reason = util::StopReason::kNone;
  /// Runs with executed == true.
  int runs_executed = 0;
  /// First point not covered by the output (the resume boundary); -1 when
  /// the sweep attempted every point.
  int first_unfinished = -1;
  /// Distinct gamma groups the engine built a SharedGammaModel for (0 when
  /// share_models is off); runs add their own stats.index_builds on top.
  int index_builds = 0;
  /// Heap bytes of the engine-built shared models.
  int64_t shared_model_bytes = 0;
  double wall_seconds = 0.0;
  /// Sums over executed runs (deterministic, like the per-run stats).
  /// clusters_total counts the clusters present in the report (after any
  /// dominance removal), not the raw stats.clusters_emitted counter.
  int64_t nodes_total = 0;
  int64_t clusters_total = 0;
};

/// Executes a batch of mining runs over one matrix.  Construction is cheap;
/// all work happens in Run().  The matrix must outlive the engine.
class SweepEngine {
 public:
  SweepEngine(const matrix::MatrixStore& data, SweepOptions options);

  /// Runs every point.  Fails only on an empty point list or an invalid
  /// engine configuration; per-point option errors are recorded in the
  /// corresponding SweepRun::status and do not abort the sweep.  See the
  /// file comment for the determinism and truncation contracts.
  util::StatusOr<SweepReport> Run(const std::vector<MinerOptions>& points);

 private:
  const matrix::MatrixStore& data_;
  SweepOptions options_;
};

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_SWEEP_H_
