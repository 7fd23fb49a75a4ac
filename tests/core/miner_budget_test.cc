// The budget layer's partial-result contract: a truncated Mine() returns OK
// with a *canonical prefix* of the unbudgeted output -- the same prefix for
// any thread count when the stop is a deterministic count budget -- and
// mining the roots it did not include (root_set) continues the search such
// that the concatenation is bit-identical to the unbudgeted run.

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "synth/generator.h"
#include "util/cancellation.h"

namespace regcluster {
namespace core {
namespace {

const matrix::ExpressionMatrix& TestData() {
  static const matrix::ExpressionMatrix* data = [] {
    synth::SyntheticConfig cfg;
    cfg.num_genes = 300;
    cfg.num_conditions = 18;
    cfg.num_clusters = 6;
    cfg.avg_cluster_genes_fraction = 0.04;
    cfg.seed = 808;
    auto ds = synth::GenerateSynthetic(cfg);
    EXPECT_TRUE(ds.ok());
    return new matrix::ExpressionMatrix(std::move(ds->data));
  }();
  return *data;
}

MinerOptions BaseOptions() {
  MinerOptions o;
  o.min_genes = 5;
  o.min_conditions = 5;
  o.gamma = 0.1;
  o.epsilon = 0.05;
  return o;
}

/// The unbudgeted run every test compares against.  Mined once and cached:
/// its deterministic MinerStats are the ground truth for node accounting,
/// so tests assert against `Reference().stats.nodes_expanded` instead of
/// re-mining to re-derive expected totals.
struct ReferenceRun {
  std::vector<RegCluster> clusters;
  MinerStats stats;
  MineOutcome outcome;
};

const ReferenceRun& Reference() {
  static const ReferenceRun* ref = [] {
    RegClusterMiner miner(TestData(), BaseOptions());
    auto clusters = miner.Mine();
    EXPECT_TRUE(clusters.ok());
    EXPECT_EQ(miner.outcome().status, MineStatus::kComplete);
    return new ReferenceRun{*std::move(clusters), miner.stats(),
                            miner.outcome()};
  }();
  return *ref;
}

/// The resume set of a truncated run that included roots [0, first).
std::vector<int> RootsFrom(int first) {
  std::vector<int> roots(
      static_cast<size_t>(TestData().num_conditions() - first));
  std::iota(roots.begin(), roots.end(), first);
  return roots;
}

bool IsPrefixOf(const std::vector<RegCluster>& prefix,
                const std::vector<RegCluster>& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == full[i])) return false;
  }
  return true;
}

TEST(MinerBudgetTest, CompleteRunOutcomeContract) {
  const auto& data = TestData();
  const ReferenceRun& ref = Reference();
  const MineOutcome& outcome = ref.outcome;
  EXPECT_EQ(outcome.status, MineStatus::kComplete);
  EXPECT_EQ(outcome.stop_reason, util::StopReason::kNone);
  EXPECT_EQ(outcome.roots_completed, outcome.roots_total);
  EXPECT_EQ(outcome.roots_total, data.num_conditions());
  EXPECT_GT(outcome.nodes_visited, 0);
  EXPECT_GE(outcome.wall_seconds, 0.0);
  // On a complete run the visited total (all work, including any that a
  // truncation would have discarded) can never undercut the canonical
  // expanded count.
  EXPECT_GT(ref.stats.nodes_expanded, 0);
  EXPECT_GE(outcome.nodes_visited, ref.stats.nodes_expanded);
}

// ---------------------------------------------------------------------------
// Deterministic count budgets: byte-identical prefix for any thread count.
// ---------------------------------------------------------------------------

class NodeBudgetSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(NodeBudgetSweep, PrefixIdenticalAcrossThreadCounts) {
  const auto& data = TestData();
  const auto& reference = Reference().clusters;

  MinerOptions base = BaseOptions();
  base.max_nodes = GetParam();

  std::vector<RegCluster> first_out;
  MineOutcome first_outcome;
  for (const int threads : {1, 4, 8}) {
    MinerOptions o = base;
    o.num_threads = threads;
    RegClusterMiner miner(data, o);
    auto clusters = miner.Mine();
    ASSERT_TRUE(clusters.ok()) << "threads=" << threads;
    const MineOutcome& outcome = miner.outcome();
    EXPECT_TRUE(IsPrefixOf(*clusters, reference)) << "threads=" << threads;
    if (outcome.status == MineStatus::kTruncated) {
      EXPECT_EQ(outcome.stop_reason, util::StopReason::kNodeBudget);
      EXPECT_LT(outcome.roots_completed, outcome.roots_total);
    } else {
      EXPECT_EQ(*clusters, reference);
      // A non-binding budget changes no search work: the deterministic node
      // accounting matches the cached unbudgeted reference exactly.
      EXPECT_EQ(miner.stats().nodes_expanded,
                Reference().stats.nodes_expanded);
    }
    // The included prefix -- both the clusters and the coverage metadata --
    // must not depend on the thread count.
    if (threads == 1) {
      first_out = *clusters;
      first_outcome = outcome;
    } else {
      EXPECT_EQ(*clusters, first_out) << "threads=" << threads;
      EXPECT_EQ(outcome.status, first_outcome.status);
      EXPECT_EQ(outcome.roots_completed, first_outcome.roots_completed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, NodeBudgetSweep,
                         ::testing::Values(int64_t{1}, int64_t{50},
                                           int64_t{200}, int64_t{1000},
                                           int64_t{100000}));

class ClusterBudgetSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ClusterBudgetSweep, PrefixIdenticalAcrossThreadCounts) {
  const auto& data = TestData();
  const auto& reference = Reference().clusters;

  MinerOptions base = BaseOptions();
  base.max_clusters = GetParam();

  std::vector<RegCluster> first_out;
  int first_roots = -1;
  for (const int threads : {1, 4, 8}) {
    MinerOptions o = base;
    o.num_threads = threads;
    RegClusterMiner miner(data, o);
    auto clusters = miner.Mine();
    ASSERT_TRUE(clusters.ok()) << "threads=" << threads;
    EXPECT_TRUE(IsPrefixOf(*clusters, reference)) << "threads=" << threads;
    EXPECT_LE(static_cast<int64_t>(clusters->size()), GetParam());
    if (threads == 1) {
      first_out = *clusters;
      first_roots = miner.outcome().roots_completed;
    } else {
      EXPECT_EQ(*clusters, first_out) << "threads=" << threads;
      EXPECT_EQ(miner.outcome().roots_completed, first_roots);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, ClusterBudgetSweep,
                         ::testing::Values(int64_t{0}, int64_t{1},
                                           int64_t{7}, int64_t{1000000}));

// ---------------------------------------------------------------------------
// Resume: the concatenation across truncated runs is the unbudgeted answer.
// ---------------------------------------------------------------------------

TEST(MinerBudgetTest, ResumeConcatenationIsBitIdentical) {
  const auto& data = TestData();
  const auto& reference = Reference().clusters;

  MinerOptions budgeted = BaseOptions();
  budgeted.max_nodes = 300;
  RegClusterMiner first(data, budgeted);
  auto head = first.Mine();
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(first.outcome().status, MineStatus::kTruncated);
  ASSERT_LT(first.outcome().roots_completed, first.outcome().roots_total);

  MinerOptions rest = BaseOptions();  // unbudgeted continuation
  rest.root_set = RootsFrom(first.outcome().roots_completed);
  RegClusterMiner second(data, rest);
  auto tail = second.Mine();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(second.outcome().status, MineStatus::kComplete);

  std::vector<RegCluster> spliced = *head;
  spliced.insert(spliced.end(), tail->begin(), tail->end());
  EXPECT_EQ(spliced, reference);
  // Node accounting splices too: stats describe exactly the included
  // canonical prefix, so head + tail partition the reference's expansions.
  EXPECT_EQ(first.stats().nodes_expanded + second.stats().nodes_expanded,
            Reference().stats.nodes_expanded);
}

TEST(MinerBudgetTest, ResumeChainOfBudgetedRunsReconstructsReference) {
  // Walk the whole search in small budgeted hops, alternating thread counts;
  // the concatenation of every hop must equal the unbudgeted reference.
  const auto& data = TestData();
  const auto& reference = Reference().clusters;

  std::vector<RegCluster> spliced;
  int next_root = 0;
  int hops = 0;
  int64_t budget = 500;
  int64_t nodes_accounted = 0;
  while (true) {
    MinerOptions o = BaseOptions();
    o.max_nodes = budget;
    o.num_threads = (hops % 2 == 0) ? 1 : 4;
    o.root_set = RootsFrom(next_root);
    RegClusterMiner miner(data, o);
    auto part = miner.Mine();
    ASSERT_TRUE(part.ok()) << "hop " << hops;
    spliced.insert(spliced.end(), part->begin(), part->end());
    nodes_accounted += miner.stats().nodes_expanded;
    if (miner.outcome().status == MineStatus::kComplete) break;
    // A hop whose budget is smaller than its next root's subtree completes
    // zero roots; double the budget so the chain always terminates.
    if (miner.outcome().roots_completed == 0) budget *= 2;
    next_root += miner.outcome().roots_completed;
    ASSERT_LT(next_root, data.num_conditions());
    ASSERT_LE(++hops, 1000) << "resume chain failed to make progress";
  }
  EXPECT_GE(hops, 1);  // the budget actually bit
  EXPECT_EQ(spliced, reference);
  // Every root's expansions were counted in exactly one hop.
  EXPECT_EQ(nodes_accounted, Reference().stats.nodes_expanded);
}

TEST(MinerBudgetTest, ResumeWithRemoveDominatedRejected) {
  // remove_dominated is a global post-pass; splicing root slices under it
  // would not be bit-identical, so root_set + remove_dominated is refused
  // outright.
  const auto& data = TestData();
  MinerOptions budgeted = BaseOptions();
  budgeted.max_nodes = 300;
  RegClusterMiner first(data, budgeted);
  ASSERT_TRUE(first.Mine().ok());

  MinerOptions rest = BaseOptions();
  rest.remove_dominated = true;
  rest.root_set = RootsFrom(first.outcome().roots_completed);
  auto result = RegClusterMiner(data, rest).Mine();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("remove_dominated"),
            std::string::npos);
}

TEST(MinerBudgetTest, SemanticHashIgnoresExecutionKnobs) {
  MinerOptions a = BaseOptions();
  MinerOptions b = BaseOptions();
  b.num_threads = 8;
  b.max_nodes = 123;
  b.deadline_ms = 5.0;
  b.budget_check_interval = 1;
  b.profile_phases = true;
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(a),
            RegClusterMiner::SemanticOptionsHash(b));
  b.epsilon = 0.06;
  EXPECT_NE(RegClusterMiner::SemanticOptionsHash(a),
            RegClusterMiner::SemanticOptionsHash(b));
}

// ---------------------------------------------------------------------------
// Hard stops: valid canonical prefix, reason surfaced.
// ---------------------------------------------------------------------------

TEST(MinerBudgetTest, ZeroDeadlineTruncatesToValidPrefix) {
  const auto& data = TestData();
  const auto& reference = Reference().clusters;
  MinerOptions o = BaseOptions();
  o.deadline_ms = 0.0;
  RegClusterMiner miner(data, o);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(miner.outcome().status, MineStatus::kTruncated);
  EXPECT_EQ(miner.outcome().stop_reason, util::StopReason::kDeadline);
  EXPECT_TRUE(IsPrefixOf(*clusters, reference));
}

TEST(MinerBudgetTest, PreCancelledTokenStopsBeforeAnyRoot) {
  const auto& data = TestData();
  MinerOptions o = BaseOptions();
  o.cancel_token = std::make_shared<util::CancellationToken>();
  o.cancel_token->Cancel();
  RegClusterMiner miner(data, o);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok());
  EXPECT_TRUE(clusters->empty());
  EXPECT_EQ(miner.outcome().status, MineStatus::kTruncated);
  EXPECT_EQ(miner.outcome().stop_reason, util::StopReason::kCancelled);
  EXPECT_EQ(miner.outcome().roots_completed, 0);
}

TEST(MinerBudgetTest, TinyMemoryLimitTripsMemoryBudget) {
  const auto& data = TestData();
  const auto& reference = Reference().clusters;
  MinerOptions o = BaseOptions();
  o.soft_memory_limit_bytes = 1;  // any scratch report exceeds this
  o.budget_check_interval = 1;
  RegClusterMiner miner(data, o);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(miner.outcome().status, MineStatus::kTruncated);
  EXPECT_EQ(miner.outcome().stop_reason, util::StopReason::kMemoryBudget);
  EXPECT_TRUE(IsPrefixOf(*clusters, reference));
  EXPECT_GT(miner.outcome().peak_scratch_bytes, 1);
}

TEST(MinerBudgetTest, BadResumeRootRejected) {
  // Resume is a root set: out-of-range, unsorted and duplicate roots are
  // refused before any work.
  const auto& data = TestData();
  const int c = data.num_conditions();
  const struct {
    std::vector<int> roots;
    util::StatusCode code;
  } cases[] = {
      {{c}, util::StatusCode::kOutOfRange},
      {{0, c + 1}, util::StatusCode::kOutOfRange},
      {{-1, 2}, util::StatusCode::kOutOfRange},
      {{3, 1}, util::StatusCode::kInvalidArgument},
      {{2, 2}, util::StatusCode::kInvalidArgument},
  };
  for (const auto& tc : cases) {
    MinerOptions o = BaseOptions();
    o.root_set = tc.roots;
    auto result = RegClusterMiner(data, o).Mine();
    ASSERT_FALSE(result.ok()) << ::testing::PrintToString(tc.roots);
    EXPECT_EQ(result.status().code(), tc.code)
        << ::testing::PrintToString(tc.roots);
  }
}

TEST(MinerBudgetTest, BadCheckIntervalRejected) {
  const auto& data = TestData();
  MinerOptions o = BaseOptions();
  o.budget_check_interval = 0;
  auto result = RegClusterMiner(data, o).Mine();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace regcluster
