// Out-of-core mining differentials: the lazy model-cache path and the
// mmap-backed matrix path must both produce clusters byte-identical to the
// eager resident search at any cache budget and thread count, and resume
// tokens must splice across the paths.

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/rwave.h"
#include "matrix/expression_matrix.h"
#include "matrix/store.h"
#include "synth/generator.h"
#include "testing/paper_data.h"

namespace regcluster {
namespace core {
namespace {

synth::SyntheticDataset Dataset() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 240;
  cfg.num_conditions = 16;
  cfg.num_clusters = 5;
  cfg.avg_cluster_genes_fraction = 0.05;
  cfg.seed = 4242;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return *std::move(ds);
}

MinerOptions BaseOptions() {
  MinerOptions o;
  o.min_genes = 4;
  o.min_conditions = 5;
  o.gamma = 0.1;
  o.epsilon = 0.05;
  return o;
}

void ExpectSameClusters(const std::vector<RegCluster>& a,
                        const std::vector<RegCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "cluster " << i;
}

class CacheBudgetSweep
    : public ::testing::TestWithParam<std::pair<int64_t, int>> {};

TEST_P(CacheBudgetSweep, LazyPathMatchesResident) {
  const auto ds = Dataset();
  const auto [budget, threads] = GetParam();

  auto resident = RegClusterMiner(ds.data, BaseOptions()).Mine();
  ASSERT_TRUE(resident.ok());
  ASSERT_FALSE(resident->empty()) << "differential is vacuous";

  MinerOptions lazy = BaseOptions();
  lazy.model_cache_bytes = budget;
  lazy.num_threads = threads;
  RegClusterMiner miner(ds.data, lazy);
  auto cached = miner.Mine();
  ASSERT_TRUE(cached.ok());
  ExpectSameClusters(*resident, *cached);

  // The lazy path reports cache telemetry; every gene was built at least
  // once during the index bake.
  EXPECT_GE(miner.outcome().model_cache_misses, ds.data.num_genes());
  EXPECT_GT(miner.outcome().model_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, CacheBudgetSweep,
    ::testing::Values(std::make_pair(int64_t{1} << 30, 1),   // unbounded-ish
                      std::make_pair(int64_t{1} << 30, 4),
                      std::make_pair(int64_t{96} << 10, 1),  // partial
                      std::make_pair(int64_t{96} << 10, 4),
                      std::make_pair(int64_t{0}, 1),         // shard floor
                      std::make_pair(int64_t{0}, 4)));

TEST(MinerOutOfCoreTest, MappedMatrixMatchesResident) {
  const auto ds = Dataset();
  const std::string path =
      ::testing::TempDir() + "/outofcore_differential.rgx";
  ASSERT_TRUE(matrix::WriteBinaryMatrix(ds.data, path).ok());
  auto mapped = matrix::MappedMatrix::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();

  auto resident = RegClusterMiner(ds.data, BaseOptions()).Mine();
  ASSERT_TRUE(resident.ok());

  MinerOptions lazy = BaseOptions();
  lazy.model_cache_bytes = 128 << 10;
  RegClusterMiner miner(*mapped, lazy);
  auto from_mapped = miner.Mine();
  ASSERT_TRUE(from_mapped.ok());
  ExpectSameClusters(*resident, *from_mapped);
  if (mapped->is_mapped()) {
    EXPECT_GT(miner.outcome().mapped_bytes, 0);
  }
  std::remove(path.c_str());
}

TEST(MinerOutOfCoreTest, CacheStatsInvariantAcrossIdenticalSerialRuns) {
  // With a serial model build the hit/miss/eviction totals are a pure
  // function of the access sequence -- two identical runs agree exactly.
  const auto ds = Dataset();
  MinerOptions o = BaseOptions();
  o.model_cache_bytes = 64 << 10;
  o.num_threads = 1;

  RegClusterMiner first(ds.data, o);
  RegClusterMiner second(ds.data, o);
  ASSERT_TRUE(first.Mine().ok());
  ASSERT_TRUE(second.Mine().ok());
  EXPECT_EQ(first.outcome().model_cache_hits,
            second.outcome().model_cache_hits);
  EXPECT_EQ(first.outcome().model_cache_misses,
            second.outcome().model_cache_misses);
  EXPECT_EQ(first.outcome().model_cache_evictions,
            second.outcome().model_cache_evictions);
}

TEST(MinerOutOfCoreTest, ResumeTokenSplicesAcrossPaths) {
  // Truncate an eager resident run, then mine the roots it did not include
  // on the out-of-core path: the concatenation must equal the untruncated
  // resident answer (root slices do not depend on the model path).
  const auto ds = Dataset();
  auto reference = RegClusterMiner(ds.data, BaseOptions()).Mine();
  ASSERT_TRUE(reference.ok());

  MinerOptions budgeted = BaseOptions();
  budgeted.max_nodes = 40;
  RegClusterMiner first(ds.data, budgeted);
  auto head = first.Mine();
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(first.outcome().status, MineStatus::kTruncated);
  const int done = first.outcome().roots_completed;
  ASSERT_LT(done, first.outcome().roots_total);

  MinerOptions rest = BaseOptions();
  rest.model_cache_bytes = 32 << 10;  // continue out-of-core
  rest.num_threads = 2;
  rest.root_set.resize(
      static_cast<size_t>(ds.data.num_conditions() - done));
  std::iota(rest.root_set.begin(), rest.root_set.end(), done);
  RegClusterMiner second(ds.data, rest);
  auto tail = second.Mine();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(second.outcome().status, MineStatus::kComplete);

  std::vector<RegCluster> spliced = *head;
  spliced.insert(spliced.end(), tail->begin(), tail->end());
  ExpectSameClusters(*reference, spliced);
}

TEST(MinerOutOfCoreTest, EagerPathReportsNoCacheTraffic) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  RegClusterMiner miner(data, o);
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_EQ(miner.outcome().model_cache_hits, 0);
  EXPECT_EQ(miner.outcome().model_cache_misses, 0);
  EXPECT_EQ(miner.outcome().model_cache_evictions, 0);
  EXPECT_EQ(miner.outcome().mapped_bytes, 0);
  EXPECT_GT(miner.outcome().model_bytes, 0);
}

TEST(MinerOutOfCoreTest, InvalidShardCountRejected) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  o.model_cache_bytes = 0;
  o.model_cache_shards = 0;
  auto result = RegClusterMiner(data, o).Mine();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Satellite: the eager bulk model build is byte-identical at any thread
// count (slot-assigned stripes, per-worker scratch).
// ---------------------------------------------------------------------------

void ExpectModelsEqual(const RWaveModel& a, const RWaveModel& b) {
  ASSERT_EQ(a.num_conditions(), b.num_conditions());
  EXPECT_EQ(a.gamma_abs(), b.gamma_abs());
  EXPECT_EQ(a.pointers(), b.pointers());
  for (int p = 0; p < a.num_conditions(); ++p) {
    EXPECT_EQ(a.condition_at(p), b.condition_at(p));
    EXPECT_EQ(a.value_at(p), b.value_at(p));
    EXPECT_EQ(a.MaxChainUp(p), b.MaxChainUp(p));
    EXPECT_EQ(a.MaxChainDown(p), b.MaxChainDown(p));
  }
}

class RWaveSetThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(RWaveSetThreadSweep, ParallelBuildMatchesSerial) {
  const auto ds = Dataset();
  const RWaveSet serial(ds.data, 0.1, 1);
  const RWaveSet parallel(ds.data, 0.1, GetParam());
  ASSERT_EQ(serial.num_genes(), parallel.num_genes());
  for (int g = 0; g < serial.num_genes(); ++g) {
    ExpectModelsEqual(serial.model(g), parallel.model(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RWaveSetThreadSweep,
                         ::testing::Values(0, 2, 4, 8));

}  // namespace
}  // namespace core
}  // namespace regcluster
