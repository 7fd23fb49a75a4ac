#include "core/miner.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/coherence.h"
#include "matrix/expression_matrix.h"
#include "testing/paper_data.h"

namespace regcluster {
namespace core {
namespace {

using regcluster::testing::RunningDataset;

TEST(MinerOptionsValidation, RejectsBadParameters) {
  const auto data = RunningDataset();
  {
    MinerOptions o;
    o.min_genes = 0;
    EXPECT_FALSE(RegClusterMiner(data, o).Mine().ok());
  }
  {
    MinerOptions o;
    o.min_conditions = 1;
    EXPECT_FALSE(RegClusterMiner(data, o).Mine().ok());
  }
  {
    MinerOptions o;
    o.gamma = -0.1;
    EXPECT_FALSE(RegClusterMiner(data, o).Mine().ok());
  }
  {
    MinerOptions o;
    o.gamma = 1.5;
    EXPECT_FALSE(RegClusterMiner(data, o).Mine().ok());
  }
  {
    MinerOptions o;
    o.epsilon = -1.0;
    EXPECT_FALSE(RegClusterMiner(data, o).Mine().ok());
  }
}

TEST(MinerOptionsValidation, RejectsNonFiniteParameters) {
  // NaN slips past every ordered comparison, so range checks alone let a
  // NaN gamma mine an empty result; each finite-valued option says so.
  const auto data = RunningDataset();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (auto set : std::vector<void (*)(MinerOptions*, double)>{
           [](MinerOptions* o, double v) { o->gamma = v; },
           [](MinerOptions* o, double v) { o->epsilon = v; },
           [](MinerOptions* o, double v) { o->deadline_ms = v; },
           [](MinerOptions* o, double v) {
             o->gamma_policy = GammaPolicy::kAbsolute;
             o->gamma = v;
           }}) {
    for (double v : {nan, inf}) {
      MinerOptions o;
      set(&o, v);
      auto result = RegClusterMiner(data, o).Mine();
      ASSERT_FALSE(result.ok()) << v;
      EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST(MinerOptionsValidation, RejectsMissingValues) {
  auto m = *matrix::ExpressionMatrix::FromRows(
      {{1, std::numeric_limits<double>::quiet_NaN(), 3}, {4, 5, 6}});
  MinerOptions o;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(MinerBasics, EmptyMatrixYieldsNothing) {
  matrix::ExpressionMatrix m(0, 5);
  MinerOptions o;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(MinerBasics, PurePositiveShiftingPattern) {
  // Two genes, pure shifting: d2 = d1 + 10.  One chain of all 4 conditions.
  auto m = *matrix::ExpressionMatrix::FromRows(
      {{0, 10, 20, 30}, {10, 20, 30, 40}});
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 4;
  o.gamma = 0.2;
  o.epsilon = 0.0;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].chain, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ((*result)[0].p_genes, (std::vector<int>{0, 1}));
  EXPECT_TRUE((*result)[0].n_genes.empty());
}

TEST(MinerBasics, PureScalingPattern) {
  // d2 = 3 * d1: pure scaling, also a shifting-and-scaling pattern.
  auto m = *matrix::ExpressionMatrix::FromRows(
      {{1, 2, 4, 8}, {3, 6, 12, 24}});
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 4;
  o.gamma = 0.1;
  o.epsilon = 1e-9;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].p_genes, (std::vector<int>{0, 1}));
}

TEST(MinerBasics, ShiftAndScaleWithNegativeMember) {
  // d2 = 2*d1 + 5 (positive), d3 = -1.5*d1 + 100 (negative).
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 10, 25, 40},
      {5, 25, 55, 85},
      {100, 85, 62.5, 40},
  });
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 4;
  o.gamma = 0.2;
  o.epsilon = 1e-9;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].p_genes, (std::vector<int>{0, 1}));
  EXPECT_EQ((*result)[0].n_genes, (std::vector<int>{2}));
}

TEST(MinerBasics, AllNegativePairEmittedOnce) {
  // Two anti-correlated genes: whichever direction is representative, the
  // cluster must appear exactly once with a 1/1 split.
  auto m = *matrix::ExpressionMatrix::FromRows(
      {{0, 10, 20, 30}, {30, 20, 10, 0}});
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 4;
  o.gamma = 0.2;
  o.epsilon = 0.0;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].p_genes.size(), 1u);
  EXPECT_EQ((*result)[0].n_genes.size(), 1u);
}

TEST(MinerBasics, EpsilonZeroSplitsImperfectGroups) {
  // Gene 2's middle step deviates: with epsilon=0 it cannot join.
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 10, 20, 30},
      {0, 10, 20, 30},
      {0, 10, 22, 30},
  });
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 4;
  o.gamma = 0.2;
  o.epsilon = 0.0;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].p_genes, (std::vector<int>{0, 1}));
}

TEST(MinerBasics, LargerEpsilonMergesThem) {
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 10, 20, 30},
      {0, 10, 20, 30},
      {0, 10, 22, 30},
  });
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 4;
  o.gamma = 0.2;
  o.epsilon = 0.5;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].p_genes, (std::vector<int>{0, 1, 2}));
}

TEST(MinerBasics, GammaBlocksSmallVariations) {
  // A "flat" gene whose variation is small relative to its range must not
  // form chains under a meaningful gamma -- the Regulation Test motivation.
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 1, 2, 100},  // range 100; steps 1 are << gamma*range
      {0, 1, 2, 100},
  });
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 0.1;
  o.epsilon = 1.0;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());  // only chains via c3 of length 2 possible
}

TEST(MinerBasics, MaxClustersCapRespected) {
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 10, 20, 30, 40},
      {0, 10, 20, 30, 40},
      {5, 15, 25, 35, 45},
  });
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  o.gamma = 0.1;
  o.epsilon = 0.1;
  o.max_clusters = 3;
  auto result = RegClusterMiner(m, o).Mine();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 3u);
}

TEST(MinerBasics, MaxNodesCapTerminates) {
  auto m = *matrix::ExpressionMatrix::FromRows({
      {0, 10, 20, 30, 40},
      {0, 10, 20, 30, 40},
  });
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  o.gamma = 0.1;
  o.epsilon = 0.1;
  o.max_nodes = 2;
  RegClusterMiner miner(m, o);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(miner.stats().nodes_expanded, 2);
}

TEST(MinerPrunings, DisablingPruningsPreservesOutput) {
  // Prunings are pure optimizations (except 3b dedup); disabling 1, 2 and
  // 3a must yield the same cluster set on the running example.
  const auto data = RunningDataset();
  MinerOptions base;
  base.min_genes = 3;
  base.min_conditions = 5;
  base.gamma = 0.15;
  base.epsilon = 0.1;
  auto reference = RegClusterMiner(data, base).Mine();
  ASSERT_TRUE(reference.ok());

  for (int which = 0; which < 3; ++which) {
    MinerOptions o = base;
    if (which == 0) o.prune_min_genes = false;
    if (which == 1) o.prune_min_conds = false;
    if (which == 2) o.prune_p_majority = false;
    auto result = RegClusterMiner(data, o).Mine();
    ASSERT_TRUE(result.ok()) << which;
    ASSERT_EQ(result->size(), reference->size()) << "pruning " << which;
    for (size_t i = 0; i < result->size(); ++i) {
      EXPECT_EQ((*result)[i], (*reference)[i]) << "pruning " << which;
    }
  }
}

TEST(MinerPrunings, DisabledPruningsExpandMoreNodes) {
  const auto data = RunningDataset();
  MinerOptions base;
  base.min_genes = 3;
  base.min_conditions = 5;
  base.gamma = 0.15;
  base.epsilon = 0.1;
  RegClusterMiner with(data, base);
  ASSERT_TRUE(with.Mine().ok());

  MinerOptions off = base;
  off.prune_min_conds = false;
  off.prune_p_majority = false;
  off.prune_min_genes = false;
  RegClusterMiner without(data, off);
  ASSERT_TRUE(without.Mine().ok());
  EXPECT_GT(without.stats().nodes_expanded, with.stats().nodes_expanded);
}

TEST(MinerStatsTest, TimersPopulated) {
  const auto data = RunningDataset();
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  RegClusterMiner miner(data, o);
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_GE(miner.stats().rwave_build_seconds, 0.0);
  EXPECT_GE(miner.stats().mine_seconds, 0.0);
  EXPECT_GT(miner.stats().extensions_tested, 0);
}

}  // namespace
}  // namespace core
}  // namespace regcluster
