#include "core/sweep.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/threshold.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace regcluster {
namespace core {

SweepEngine::SweepEngine(const matrix::MatrixStore& data,
                         SweepOptions options)
    : data_(data), options_(std::move(options)) {}

util::StatusOr<SweepReport> SweepEngine::Run(
    const std::vector<MinerOptions>& points) {
  util::WallTimer wall;
  if (points.empty()) {
    return util::Status::InvalidArgument("sweep has no points");
  }
  if (options_.num_threads < 0) {
    return util::Status::InvalidArgument("num_threads must be >= 0");
  }
  if (data_.HasMissingValues()) {
    return util::Status::FailedPrecondition(
        "matrix has missing values; impute before mining");
  }
  int threads = options_.num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  SweepReport report;
  report.runs.resize(points.size());

  // --- Group points by gamma and build the shared models (serially, so the
  // build cost and report.index_builds are deterministic). ---
  struct Group {
    GammaSpec spec;
    int max_minc = 2;
    std::shared_ptr<const SharedGammaModel> model;
  };
  std::vector<Group> groups;                 // first-appearance order
  std::vector<int> point_group(points.size(), -1);
  for (size_t i = 0; i < points.size(); ++i) {
    report.runs[i].options = points[i];
    // The engine owns scheduling; a run must never spin up its own pool.
    report.runs[i].options.num_threads = 1;
    // A point failing validation never joins a group (Prepare() records its
    // rejection per run); SharedGammaModel::Build asserts a valid spec.
    if (!options_.share_models || !ValidateMinerOptions(points[i]).ok()) {
      continue;
    }
    const GammaSpec spec{points[i].gamma_policy, points[i].gamma};
    size_t g = 0;
    while (g < groups.size() && !SameGammaSpec(groups[g].spec, spec)) ++g;
    if (g == groups.size()) groups.push_back(Group{spec, 2, nullptr});
    groups[g].max_minc = std::max(groups[g].max_minc, points[i].min_conditions);
    point_group[i] = static_cast<int>(g);
  }
  for (Group& grp : groups) {
    grp.model = SharedGammaModel::Build(data_, grp.spec, grp.max_minc);
    report.shared_model_bytes +=
        static_cast<int64_t>(grp.model->MemoryBytes());
  }
  report.index_builds = static_cast<int>(groups.size());

  // --- Per-run overlay bookkeeping.  The sweep's hard-stop sources are
  // injected only into runs that do not carry their own; the flags record
  // which source is the *binding* one, so a truncated run can be classified
  // as "sweep cut it" (exclude, stop) vs "its own budget cut it" (the output
  // is byte-identical to the independent run: include, continue). ---
  std::vector<char> token_injected(points.size(), 0);
  std::vector<char> deadline_injected(points.size(), 0);
  util::DeadlineSource sweep_deadline;
  if (options_.deadline_ms >= 0) {
    sweep_deadline = util::DeadlineSource::AfterMillis(options_.deadline_ms);
  }

  std::vector<std::unique_ptr<RegClusterMiner>> miners(points.size());
  auto prepare_run = [&](size_t i) -> const util::Status& {
    SweepRun& run = report.runs[i];
    if (point_group[i] >= 0) {
      run.options.shared_model = groups[point_group[i]].model;
      run.used_shared_model = true;
    }
    if (options_.cancel_token != nullptr && run.options.cancel_token == nullptr) {
      run.options.cancel_token = options_.cancel_token;
      token_injected[i] = 1;
    }
    if (sweep_deadline.active()) {
      const double remaining = sweep_deadline.RemainingMillis();
      if (run.options.deadline_ms < 0 || run.options.deadline_ms > remaining) {
        run.options.deadline_ms = remaining;
        deadline_injected[i] = 1;
      }
    }
    miners[i] = std::make_unique<RegClusterMiner>(data_, run.options);
    run.status = miners[i]->Prepare();
    return run.status;
  };

  // --- Phase A: with a pool, every run's root/subtree tasks interleave on
  // it; one Wait() covers the whole sweep.  (Serial sweeps prepare lazily in
  // the canonical walk below, so a sweep deadline is measured against the
  // time each run actually starts.) ---
  std::unique_ptr<util::TaskPool> pool;
  if (threads > 1) {
    pool = std::make_unique<util::TaskPool>(threads);
    for (size_t i = 0; i < points.size(); ++i) {
      if (prepare_run(i).ok()) miners[i]->SubmitParallelWork(pool.get());
    }
    pool->Wait();
  }

  // --- Phase B: canonical serial walk.  Finalization order, budget
  // accounting and truncation decisions are independent of the pool. ---
  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  int64_t node_rem = options_.max_nodes >= 0 ? options_.max_nodes : kUnlimited;
  int64_t cluster_rem =
      options_.max_clusters >= 0 ? options_.max_clusters : kUnlimited;
  for (size_t i = 0; i < points.size(); ++i) {
    SweepRun& run = report.runs[i];
    // A sweep-level hard stop observed between runs truncates at the
    // boundary before touching this run.
    util::StopReason hard = util::StopReason::kNone;
    if (options_.cancel_token != nullptr && options_.cancel_token->cancelled()) {
      hard = options_.cancel_token->reason();
    } else if (sweep_deadline.Expired()) {
      hard = util::StopReason::kDeadline;
    }
    if (hard != util::StopReason::kNone) {
      report.stop_reason = hard;
      report.first_unfinished = static_cast<int>(i);
      break;
    }

    if (pool == nullptr) {
      if (!prepare_run(i).ok()) continue;  // soft per-point failure
    } else if (!run.status.ok()) {
      continue;
    }
    auto clusters = miners[i]->Finalize();
    if (!clusters.ok()) {
      run.status = clusters.status();
      miners[i].reset();
      continue;
    }
    run.clusters = std::move(clusters).value();
    run.stats = miners[i]->stats();
    run.outcome = miners[i]->outcome();
    miners[i].reset();

    // An injected hard-stop source interrupted this run mid-flight: its
    // partial output is not the independent-run answer, so the run is
    // excluded whole and the sweep stops at its boundary.
    const bool sweep_interrupted =
        run.outcome.status == MineStatus::kTruncated &&
        ((run.outcome.stop_reason == util::StopReason::kCancelled &&
          token_injected[i] != 0) ||
         (run.outcome.stop_reason == util::StopReason::kDeadline &&
          deadline_injected[i] != 0));
    // Run-boundary enforcement of the sweep count budgets, against the
    // run's deterministic totals: the first run that does not fit is
    // excluded whole.  Same decision at any thread count.
    util::StopReason cut = util::StopReason::kNone;
    if (sweep_interrupted) {
      cut = run.outcome.stop_reason;
    } else if (run.stats.nodes_expanded > node_rem) {
      cut = util::StopReason::kNodeBudget;
    } else if (run.stats.clusters_emitted > cluster_rem) {
      cut = util::StopReason::kClusterBudget;
    }
    if (cut != util::StopReason::kNone) {
      run.clusters.clear();
      run.stats = MinerStats{};
      run.outcome = MineOutcome{};
      report.stop_reason = cut;
      report.first_unfinished = static_cast<int>(i);
      break;
    }

    node_rem -= run.stats.nodes_expanded;
    cluster_rem -= run.stats.clusters_emitted;
    run.executed = true;
    ++report.runs_executed;
    report.nodes_total += run.stats.nodes_expanded;
    // Count the clusters actually present in the report: with dominance
    // removal on, fewer than stats.clusters_emitted (which stays the budget
    // accounting unit above because it is the deterministic search-side
    // counter).
    report.clusters_total += static_cast<int64_t>(run.clusters.size());
  }

  if (report.stop_reason != util::StopReason::kNone) {
    report.status = MineStatus::kTruncated;
  }
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

}  // namespace core
}  // namespace regcluster
