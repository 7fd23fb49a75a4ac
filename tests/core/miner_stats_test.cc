// Differential tests for the mining telemetry layer.
//
// The contract under test (DESIGN.md §observability):
//   1. collect_stats is observation only -- turning it off changes no
//      cluster byte, it just zeroes the detail counters.
//   2. Every MinerStats counter is deterministic: a pure function of
//      data + options, identical at any thread count and across repeated
//      runs, because tasks count into per-task shards that are merged in
//      canonical root order.
// Execution telemetry (MineOutcome: steals, queue depth, phase times) is
// explicitly exempt from (2) and is only sanity-checked here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/miner.h"
#include "io/json_export.h"
#include "synth/generator.h"
#include "testing/paper_data.h"
#include "util/hash128.h"

namespace regcluster {
namespace core {
namespace {

/// Serializes clusters to the canonical JSON document (no outcome/stats
/// blocks, which legitimately differ between runs).
std::string ClustersDigest(const std::vector<RegCluster>& clusters,
                           const matrix::ExpressionMatrix& data) {
  std::ostringstream os;
  EXPECT_TRUE(io::WriteClustersJson(clusters, &data, os).ok());
  return os.str();
}

/// The full deterministic counter set, as a comparable tuple-ish vector.
std::vector<int64_t> DeterministicCounters(const MinerStats& s) {
  return {s.nodes_expanded,      s.extensions_tested,
          s.pruned_min_genes,    s.pruned_p_majority,
          s.pruned_duplicate,    s.pruned_coherence,
          s.genes_dropped_min_conds, s.clusters_emitted,
          s.index_word_ops,      s.coherence_divide_calls,
          s.coherence_scores,    s.dedup_probes};
}

MinerOptions RunningExampleOptions() {
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 5;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  return o;
}

TEST(MinerStatsTest, StatsOnOffProducesByteIdenticalClusters) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions on = RunningExampleOptions();
  on.collect_stats = true;
  MinerOptions off = on;
  off.collect_stats = false;

  RegClusterMiner miner_on(data, on);
  RegClusterMiner miner_off(data, off);
  auto a = miner_on.Mine();
  auto b = miner_off.Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(ClustersDigest(*a, data), ClustersDigest(*b, data));

  // Structural counters are maintained either way (budget truncation
  // depends on them); only the detail counters go dark.
  EXPECT_EQ(miner_on.stats().nodes_expanded, miner_off.stats().nodes_expanded);
  EXPECT_EQ(miner_on.stats().clusters_emitted,
            miner_off.stats().clusters_emitted);
  EXPECT_EQ(miner_on.stats().extensions_tested,
            miner_off.stats().extensions_tested);

  EXPECT_GT(miner_on.stats().index_word_ops, 0);
  EXPECT_GT(miner_on.stats().coherence_divide_calls, 0);
  EXPECT_GT(miner_on.stats().coherence_scores, 0);
  EXPECT_GT(miner_on.stats().dedup_probes, 0);
  EXPECT_EQ(miner_off.stats().index_word_ops, 0);
  EXPECT_EQ(miner_off.stats().coherence_divide_calls, 0);
  EXPECT_EQ(miner_off.stats().coherence_scores, 0);
  EXPECT_EQ(miner_off.stats().dedup_probes, 0);
}

TEST(MinerStatsTest, DedupProbesCoverEveryEmissionAttempt) {
  const auto data = regcluster::testing::RunningDataset();
  RegClusterMiner miner(data, RunningExampleOptions());
  ASSERT_TRUE(miner.Mine().ok());
  const MinerStats& s = miner.stats();
  // Every emitted cluster and every duplicate-pruned branch first probed
  // the seen-key set.
  EXPECT_GE(s.dedup_probes, s.clusters_emitted + s.pruned_duplicate);
  // A divide pass computes at least one score.
  EXPECT_GE(s.coherence_scores, s.coherence_divide_calls);
}

class MinerStatsThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinerStatsThreadSweep, CountersThreadInvariantOnSynthetic) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 300;
  cfg.num_conditions = 18;
  cfg.num_clusters = 6;
  cfg.avg_cluster_genes_fraction = 0.04;
  cfg.seed = 808;
  auto ds = synth::GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok());

  MinerOptions serial;
  serial.min_genes = 5;
  serial.min_conditions = 5;
  serial.gamma = 0.1;
  serial.epsilon = 0.05;
  MinerOptions threaded = serial;
  threaded.num_threads = GetParam();

  RegClusterMiner sm(ds->data, serial);
  RegClusterMiner tm(ds->data, threaded);
  auto a = sm.Mine();
  auto b = tm.Mine();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(ClustersDigest(*a, ds->data), ClustersDigest(*b, ds->data));
  EXPECT_EQ(DeterministicCounters(sm.stats()),
            DeterministicCounters(tm.stats()));
}

INSTANTIATE_TEST_SUITE_P(Threads, MinerStatsThreadSweep,
                         ::testing::Values(1, 2, 4));

TEST(MinerStatsTest, CountersStableAcrossRepeatedRuns) {
  const auto data = regcluster::testing::RunningDataset();
  const MinerOptions opts = RunningExampleOptions();
  std::vector<int64_t> reference;
  for (int run = 0; run < 3; ++run) {
    RegClusterMiner miner(data, opts);
    ASSERT_TRUE(miner.Mine().ok());
    const auto counters = DeterministicCounters(miner.stats());
    if (run == 0) {
      reference = counters;
    } else {
      EXPECT_EQ(reference, counters) << "run " << run;
    }
  }
}

// Pinned golden values: the 12 deterministic counters and a digest of the
// canonical cluster JSON for fixed seeded inputs.  The tests above prove
// counters invariant across threads and repeats within one build; these
// literals pin them across commits, so a search optimization that is meant
// to be conservative (prune earlier, same result) must reproduce every
// count and every cluster byte.  Update a literal only for a change that is
// *meant* to alter the search, and say so in the change log.
struct GoldenCase {
  const char* name;
  double epsilon;
  /// kPlain, or the one option that differs from the GoldenOptions() base.
  enum Variant {
    kPlain,
    kRequiredGenes,
    kAllowedConditions,
    kClosedChains,
    kNoMinGenesPrune
  } variant;
  std::vector<int64_t> counters;
  const char* digest;  ///< Fnv128 of the cluster JSON, hi:lo in hex
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

synth::SyntheticConfig GoldenConfig() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 240;
  cfg.num_conditions = 14;
  cfg.num_clusters = 5;
  cfg.avg_cluster_genes_fraction = 0.05;
  cfg.seed = 2024;
  return cfg;
}

MinerOptions GoldenOptions(const GoldenCase& c,
                           const synth::SyntheticDataset& ds) {
  MinerOptions o;
  o.min_genes = 6;
  o.min_conditions = 5;
  o.gamma = 0.1;
  o.epsilon = c.epsilon;
  switch (c.variant) {
    case GoldenCase::kPlain:
      break;
    case GoldenCase::kRequiredGenes:
      o.required_genes = {ds.implants[0].p_genes[0]};
      break;
    case GoldenCase::kAllowedConditions:
      o.allowed_conditions = {0, 1, 2, 4, 5, 7, 8, 10, 11, 13};
      break;
    case GoldenCase::kClosedChains:
      o.closed_chains_only = true;
      break;
    case GoldenCase::kNoMinGenesPrune:
      o.prune_min_genes = false;
      break;
  }
  return o;
}

std::string DigestHex(const std::string& text) {
  const util::Hash128 h =
      util::Fnv128().MixBytes(text.data(), text.size()).Digest();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 ":%016" PRIx64, h.hi, h.lo);
  return buf;
}

// Recorded before count-first filtering (the MinG prune ahead of the
// FilterCandidate gather), which reproduces every value.
const GoldenCase kGoldenCases[] = {
    {"Loose", 0.5, GoldenCase::kPlain,
     {2133, 11818, 9348, 331, 8, 1251, 60169, 35, 61592, 2288, 25325, 43},
     "f293aa8c7d6803aa:5c469463a95931b0"},
    {"Tight", 0.01, GoldenCase::kPlain,
     {334, 2544, 193, 6, 0, 2031, 51234, 33, 32381, 2169, 24324, 33},
     "923ce90be186bfab:b15e41f2cf9659e8"},
    {"RequiredGenes", 0.5, GoldenCase::kRequiredGenes,
     {175, 1282, 582, 19, 0, 258, 26192, 1, 13406, 544, 6605, 1},
     "9763730d86e6d3e0:cb6053da966f37a7"},
    {"AllowedConditions", 0.5, GoldenCase::kAllowedConditions,
     {734, 2876, 2072, 120, 0, 400, 23068, 2, 26149, 714, 7959, 2},
     "729f807057db16dd:b556c2f10ab33e7d"},
    {"ClosedChains", 0.5, GoldenCase::kClosedChains,
     {2133, 11818, 9348, 331, 8, 1251, 60169, 28, 61851, 2288, 25325, 36},
     "d3435671f39047cc:c8c7af5c34fd748f"},
    // Same clusters as Tight: with the prune off, short candidates are
    // scored and coherence-pruned instead (pruned_min_genes 0).
    {"NoMinGenesPrune", 0.01, GoldenCase::kNoMinGenesPrune,
     {334, 2544, 0, 6, 0, 2224, 51234, 33, 32381, 2362, 25088, 33},
     "923ce90be186bfab:b15e41f2cf9659e8"},
};

class MinerStatsGolden
    : public ::testing::TestWithParam<std::tuple<GoldenCase, int>> {};

TEST_P(MinerStatsGolden, CountersAndClustersMatchPinnedValues) {
  const GoldenCase& c = std::get<0>(GetParam());
  auto ds = synth::GenerateSynthetic(GoldenConfig());
  ASSERT_TRUE(ds.ok());
  MinerOptions opts = GoldenOptions(c, *ds);
  opts.num_threads = std::get<1>(GetParam());
  RegClusterMiner miner(ds->data, opts);
  auto clusters = miner.Mine();
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(DeterministicCounters(miner.stats()), c.counters) << c.name;
  EXPECT_EQ(DigestHex(ClustersDigest(*clusters, ds->data)), c.digest)
      << c.name << " (" << clusters->size() << " clusters)";
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, MinerStatsGolden,
    ::testing::Combine(::testing::ValuesIn(kGoldenCases),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MinerStatsGolden::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_T" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MinerStatsTest, OutcomeTelemetryPopulated) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions opts = RunningExampleOptions();
  opts.num_threads = 2;
  RegClusterMiner miner(data, opts);
  ASSERT_TRUE(miner.Mine().ok());
  const MineOutcome& out = miner.outcome();
  // Scheduling-dependent values: only sane ranges, never exact values.
  EXPECT_GE(out.phase_a_seconds, 0.0);
  EXPECT_GE(out.phase_b_seconds, 0.0);
  EXPECT_GE(out.pool_steals, 0);
  EXPECT_GE(out.pool_queue_high_water, 1);  // at least one task was queued
  EXPECT_EQ(out.budget_polls, 0);           // no budget armed -> no guard
}

TEST(MinerStatsTest, BudgetPollsCountedWhenGuardArmed) {
  const auto data = regcluster::testing::RunningDataset();
  MinerOptions opts = RunningExampleOptions();
  opts.max_nodes = int64_t{1} << 40;   // armed but never binding
  opts.budget_check_interval = 1;      // poll at every node
  RegClusterMiner miner(data, opts);
  ASSERT_TRUE(miner.Mine().ok());
  EXPECT_GT(miner.outcome().budget_polls, 0);
}

}  // namespace
}  // namespace core
}  // namespace regcluster
