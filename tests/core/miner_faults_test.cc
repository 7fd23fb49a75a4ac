// Fault injection: trip the cancellation token on the k-th budget poll for
// hundreds of PRNG-drawn k values and thread counts.  Whatever the trip
// point, Mine() must return OK with a canonical prefix of the unbudgeted
// reference, and resuming from its token must reconstruct the reference
// bit-identically.  Run under ASan/TSan in CI, this sweeps the abandonment
// and repair paths for leaks, races and use-after-frees.

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "synth/generator.h"
#include "util/cancellation.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

matrix::ExpressionMatrix FaultData() {
  // Small enough that one mine is ~milliseconds (the sweep runs hundreds),
  // big enough that the search has multi-level subtrees to abandon.
  synth::SyntheticConfig cfg;
  cfg.num_genes = 120;
  cfg.num_conditions = 14;
  cfg.num_clusters = 5;
  cfg.avg_cluster_genes_fraction = 0.08;
  cfg.seed = 4242;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return ds->data;
}

MinerOptions FaultOptions() {
  MinerOptions o;
  o.min_genes = 4;
  o.min_conditions = 4;
  o.gamma = 0.1;
  o.epsilon = 0.05;
  o.budget_check_interval = 1;  // every DFS node is a potential trip point
  return o;
}

bool IsPrefixOf(const std::vector<RegCluster>& prefix,
                const std::vector<RegCluster>& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == full[i])) return false;
  }
  return true;
}

class MinerFaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinerFaultSweep, TokenTripAtAnyPollLeavesValidResumableState) {
  const int threads = GetParam();
  const auto data = FaultData();

  RegClusterMiner ref_miner(data, FaultOptions());
  auto reference = ref_miner.Mine();
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(ref_miner.outcome().nodes_visited, 50) << "dataset too easy";
  // Poll counts scale with total nodes; overshoot so some trials also land
  // in the no-op tail (token trips after the search already finished).
  const int64_t max_polls = ref_miner.outcome().nodes_visited * 2;

  util::Prng prng(0xfa017ULL + static_cast<uint64_t>(threads));
  constexpr int kTrials = 100;
  int truncated_trials = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int64_t k = prng.UniformInt(1, max_polls);
    MinerOptions o = FaultOptions();
    o.num_threads = threads;
    o.cancel_token = std::make_shared<util::CancellationToken>();
    o.cancel_token->CancelAfterPolls(k);
    RegClusterMiner miner(data, o);
    auto clusters = miner.Mine();
    ASSERT_TRUE(clusters.ok()) << "threads=" << threads << " k=" << k;
    ASSERT_TRUE(IsPrefixOf(*clusters, *reference))
        << "threads=" << threads << " k=" << k;

    const MineOutcome& outcome = miner.outcome();
    if (outcome.status == MineStatus::kComplete) {
      EXPECT_EQ(*clusters, *reference) << "k=" << k;
      continue;
    }
    ++truncated_trials;
    EXPECT_EQ(outcome.stop_reason, util::StopReason::kCancelled)
        << "k=" << k;
    ASSERT_LT(outcome.roots_completed, outcome.roots_total) << "k=" << k;

    // Resume (without the faulty token) by mining the roots the cut run did
    // not include, and splice: must be bit-identical to the unbudgeted
    // reference.
    MinerOptions rest = FaultOptions();
    rest.num_threads = threads;
    rest.root_set.resize(
        static_cast<size_t>(data.num_conditions() - outcome.roots_completed));
    std::iota(rest.root_set.begin(), rest.root_set.end(),
              outcome.roots_completed);
    RegClusterMiner tail_miner(data, rest);
    auto tail = tail_miner.Mine();
    ASSERT_TRUE(tail.ok()) << "k=" << k;
    EXPECT_EQ(tail_miner.outcome().status, MineStatus::kComplete)
        << "k=" << k;
    std::vector<RegCluster> spliced = *clusters;
    spliced.insert(spliced.end(), tail->begin(), tail->end());
    ASSERT_EQ(spliced, *reference) << "threads=" << threads << " k=" << k;
  }
  // The sweep is only a fault *injection* test if faults actually fired.
  EXPECT_GT(truncated_trials, kTrials / 4)
      << "trip points almost never landed inside the search; shrink "
         "max_polls or grow the dataset";
}

INSTANTIATE_TEST_SUITE_P(Threads, MinerFaultSweep, ::testing::Values(1, 4));

TEST(MinerFaultsTest, BackToBackFaultedMinesOnOneMinerObject) {
  // Re-using a RegClusterMiner after a cancelled run must fully reset the
  // outcome/stats state; interleave faulted and clean runs.
  const auto data = FaultData();
  RegClusterMiner ref_miner(data, FaultOptions());
  auto reference = ref_miner.Mine();
  ASSERT_TRUE(reference.ok());

  for (const int64_t k : {int64_t{1}, int64_t{25}, int64_t{400}}) {
    MinerOptions o = FaultOptions();
    o.cancel_token = std::make_shared<util::CancellationToken>();
    o.cancel_token->CancelAfterPolls(k);
    RegClusterMiner miner(data, o);
    auto first = miner.Mine();
    ASSERT_TRUE(first.ok());
    auto second = miner.Mine();  // token stays tripped: empty prefix
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->empty());
    EXPECT_EQ(miner.outcome().status, MineStatus::kTruncated);
    EXPECT_EQ(miner.outcome().roots_completed, 0);
  }

  RegClusterMiner clean(data, FaultOptions());
  auto again = clean.Mine();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *reference);
}

}  // namespace
}  // namespace core
}  // namespace regcluster
