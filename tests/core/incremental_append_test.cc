// Append-equivalence battery for incremental time-course mining
// (io/incremental.h).  The contract under test: after ANY sequence of
// condition appends, MineIncremental's clusters and every deterministic
// MinerStats counter are byte-identical to a from-scratch
// RegClusterMiner::Mine() over the grown matrix, at any thread count --
// and the delta-updated gamma model / bitmap index are byte-identical to
// ones freshly built at the new width, including across 64-bit word
// boundaries.  A tiny-matrix leg re-checks each step against the
// exhaustive first-principles oracle, so the equivalence is not just
// "incremental == miner" but "incremental == Definition 3.3".  The root
// ledger legs check that a checkpointed mine ends on the very ledger
// MineInitial records, and that the ledger and sweep decoders reject, or
// round-trip exactly, record payloads mutated under a valid CRC.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/rwave_index.h"
#include "core/threshold.h"
#include "io/checkpoint.h"
#include "io/incremental.h"
#include "matrix/expression_matrix.h"
#include "synth/generator.h"
#include "testing/oracle_miner.h"
#include "util/durable_file.h"
#include "util/prng.h"
#include "util/status.h"

namespace regcluster {
namespace io {
namespace {

using core::MinerOptions;
using core::MinerStats;
using core::RegCluster;
using core::RegClusterMiner;
using matrix::ExpressionMatrix;

ExpressionMatrix RandomMatrix(uint64_t seed, int genes, int conds) {
  util::Prng prng(seed);
  ExpressionMatrix m(genes, conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < conds; ++c) m(g, c) = prng.Uniform(0, 10);
  }
  return m;
}

// One appended column of `full`, in the (names, columns) shape
// ExpressionMatrix::AppendConditions takes.
void AppendColumnsFrom(const ExpressionMatrix& full, int first, int count,
                       ExpressionMatrix* prefix) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  for (int k = 0; k < count; ++k) {
    const int c = first + k;
    names.push_back(full.condition_names()[static_cast<size_t>(c)]);
    std::vector<double> col(static_cast<size_t>(full.num_genes()));
    for (int g = 0; g < full.num_genes(); ++g) col[static_cast<size_t>(g)] = full(g, c);
    columns.push_back(std::move(col));
  }
  ASSERT_TRUE(prefix->AppendConditions(names, columns).ok());
}

// Every deterministic MinerStats field.  Wall-clock fields
// (*_seconds) time the call that produced them and are exempt by
// contract; the *_ns phase profile is only populated under
// profile_phases, which the incremental splice forbids.
void ExpectStatsEqual(const MinerStats& got, const MinerStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded) << where;
  EXPECT_EQ(got.extensions_tested, want.extensions_tested) << where;
  EXPECT_EQ(got.pruned_min_genes, want.pruned_min_genes) << where;
  EXPECT_EQ(got.pruned_p_majority, want.pruned_p_majority) << where;
  EXPECT_EQ(got.pruned_duplicate, want.pruned_duplicate) << where;
  EXPECT_EQ(got.pruned_coherence, want.pruned_coherence) << where;
  EXPECT_EQ(got.genes_dropped_min_conds, want.genes_dropped_min_conds) << where;
  EXPECT_EQ(got.clusters_emitted, want.clusters_emitted) << where;
  EXPECT_EQ(got.index_builds, want.index_builds) << where;
  EXPECT_EQ(got.index_word_ops, want.index_word_ops) << where;
  EXPECT_EQ(got.coherence_divide_calls, want.coherence_divide_calls) << where;
  EXPECT_EQ(got.coherence_scores, want.coherence_scores) << where;
  EXPECT_EQ(got.dedup_probes, want.dedup_probes) << where;
}

void ExpectClustersEqual(const std::vector<RegCluster>& got,
                         const std::vector<RegCluster>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << where << " cluster " << i;
  }
}

// From-scratch reference: a plain Mine() over `data` under `options`,
// returning (clusters, stats).
struct Reference {
  std::vector<RegCluster> clusters;
  MinerStats stats;
};

Reference FromScratch(const ExpressionMatrix& data,
                      const MinerOptions& options) {
  RegClusterMiner miner(data, options);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  Reference ref;
  if (clusters.ok()) ref.clusters = *std::move(clusters);
  ref.stats = miner.stats();
  return ref;
}

// Runs a whole append chain -- MineInitial on the first `start` columns of
// `full`, then appends in steps of `k` -- comparing clusters and stats
// against from-scratch mines at every width, threading the durable state
// AND the in-process model so both the UpdateAppend delta path and the
// splice logic are exercised.  Records the encoded state bytes at every
// step in `encoded` so callers can pin cross-thread byte-identity.
void RunChain(const ExpressionMatrix& full, int start, int k,
              const MinerOptions& options, const std::string& tag,
              std::vector<std::string>* encoded) {
  encoded->clear();
  std::vector<int> all_genes, prefix_conds;
  for (int g = 0; g < full.num_genes(); ++g) all_genes.push_back(g);
  for (int c = 0; c < start; ++c) prefix_conds.push_back(c);
  ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

  auto result = MineInitial(grown, options);
  ASSERT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  {
    const Reference ref = FromScratch(grown, options);
    ExpectClustersEqual(result->clusters, ref.clusters, tag + " seed");
    ExpectStatsEqual(result->stats, ref.stats, tag + " seed");
  }
  encoded->push_back(EncodeIncrementalState(result->state));

  int width = start;
  while (width < full.num_conditions()) {
    const int step = std::min(k, full.num_conditions() - width);
    AppendColumnsFrom(full, width, step, &grown);
    const int first_new = width;
    width += step;
    const std::string where =
        tag + " width " + std::to_string(width) + " (+" + std::to_string(step) + ")";

    auto next = MineIncremental(grown, first_new, options, result->state,
                                result->model);
    ASSERT_TRUE(next.ok()) << where << ": " << next.status().ToString();
    EXPECT_EQ(next->roots_remined + next->roots_spliced, width) << where;

    const Reference ref = FromScratch(grown, options);
    ExpectClustersEqual(next->clusters, ref.clusters, where);
    ExpectStatsEqual(next->stats, ref.stats, where);
    encoded->push_back(EncodeIncrementalState(next->state));
    result = std::move(next);
  }
}

MinerOptions OptionsForSeed(uint64_t seed) {
  MinerOptions o;
  o.min_genes = 2 + static_cast<int>(seed % 2);
  o.min_conditions = 2 + static_cast<int>(seed % 3);
  o.gamma = 0.05 + 0.05 * static_cast<double>(seed % 4);
  o.epsilon = 0.1 * static_cast<double>(seed % 5);
  o.gamma_policy = (seed % 2 == 0) ? core::GammaPolicy::kRangeFraction
                                   : core::GammaPolicy::kAbsolute;
  if (o.gamma_policy == core::GammaPolicy::kAbsolute) o.gamma = 1.0;
  o.remove_dominated = (seed % 3 == 0);
  return o;
}

// Satellite 1, leg (a): 50 PRNG matrices, appended one condition at a
// time; clusters and deterministic counters byte-identical to
// from-scratch at every step.
TEST(IncrementalAppendDifferential, OneAtATimeFiftyMatrices) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const int genes = 6 + static_cast<int>(seed % 5);
    const int conds = 6 + static_cast<int>(seed % 7);
    const int start = 4 + static_cast<int>(seed % 2);
    const ExpressionMatrix full = RandomMatrix(seed, genes, conds);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = (seed % 2 == 0) ? 1 : 4;
    std::vector<std::string> enc;
    RunChain(full, start, /*k=*/1, o, "seed " + std::to_string(seed), &enc);
    if (HasFatalFailure()) return;
  }
}

// Satellite 1, leg (b): k-at-a-time appends (k in 2..4) over the same
// matrix family.
TEST(IncrementalAppendDifferential, KAtATimeFiftyMatrices) {
  for (uint64_t seed = 51; seed <= 100; ++seed) {
    const int genes = 6 + static_cast<int>(seed % 5);
    const int conds = 8 + static_cast<int>(seed % 5);
    const int k = 2 + static_cast<int>(seed % 3);
    const ExpressionMatrix full = RandomMatrix(seed, genes, conds);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = (seed % 2 == 0) ? 4 : 1;
    std::vector<std::string> enc;
    RunChain(full, /*start=*/4, k, o, "seed " + std::to_string(seed), &enc);
    if (HasFatalFailure()) return;
  }
}

// Cross-thread byte-identity: the durable state produced at every step of
// a chain is the same bytes at 1 and 4 threads.
TEST(IncrementalAppendDifferential, StateBytesIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 201; seed <= 208; ++seed) {
    const ExpressionMatrix full = RandomMatrix(seed, 8, 9);
    MinerOptions o = OptionsForSeed(seed);
    o.num_threads = 1;
    std::vector<std::string> serial;
    RunChain(full, 5, 1, o, "serial " + std::to_string(seed), &serial);
    if (HasFatalFailure()) return;
    o.num_threads = 4;
    std::vector<std::string> parallel;
    RunChain(full, 5, 1, o, "parallel " + std::to_string(seed), &parallel);
    if (HasFatalFailure()) return;
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "seed " << seed << " step " << i << ": state bytes diverge";
    }
  }
}

// Satellite 1, leg (c): every step of an append chain re-checked against
// the exhaustive oracle, so incremental == Definition 3.3 directly, not
// just incremental == miner.  Tiny matrices only (the oracle is
// exponential in |C|).
TEST(IncrementalAppendDifferential, OracleDifferentialOnTinyMatrices) {
  for (uint64_t seed = 301; seed <= 306; ++seed) {
    const int genes = 4 + static_cast<int>(seed % 3);
    const ExpressionMatrix full = RandomMatrix(seed, genes, 7);
    MinerOptions o;
    o.min_genes = 2;
    o.min_conditions = 2;
    o.gamma = 0.1 + 0.05 * static_cast<double>(seed % 3);
    o.epsilon = 0.2;
    o.num_threads = (seed % 2 == 0) ? 4 : 1;

    testing::OracleOptions oracle;
    oracle.gamma = core::GammaSpec{o.gamma_policy, o.gamma};
    oracle.epsilon = o.epsilon;
    oracle.min_genes = o.min_genes;
    oracle.min_conditions = o.min_conditions;

    std::vector<int> all_genes, prefix_conds;
    for (int g = 0; g < genes; ++g) all_genes.push_back(g);
    for (int c = 0; c < 4; ++c) prefix_conds.push_back(c);
    ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

    auto result = MineInitial(grown, o);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectClustersEqual(testing::Canonicalize(result->clusters),
                        testing::OracleMine(grown, oracle),
                        "seed " + std::to_string(seed) + " oracle seed step");

    for (int width = 4; width < full.num_conditions(); ++width) {
      AppendColumnsFrom(full, width, 1, &grown);
      auto next =
          MineIncremental(grown, width, o, result->state, result->model);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ExpectClustersEqual(
          testing::Canonicalize(next->clusters),
          testing::OracleMine(grown, oracle),
          "seed " + std::to_string(seed) + " oracle width " +
              std::to_string(width + 1));
      result = std::move(next);
    }
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Model / index delta equivalence.

void ExpectModelsEqual(const core::SharedGammaModel& got,
                       const core::SharedGammaModel& want,
                       const std::string& where) {
  ASSERT_EQ(got.rwaves.size(), want.rwaves.size()) << where;
  for (size_t g = 0; g < got.rwaves.size(); ++g) {
    const core::RWaveModel& a = got.rwaves[g];
    const core::RWaveModel& b = want.rwaves[g];
    const std::string at = where + " gene " + std::to_string(g);
    ASSERT_EQ(a.num_conditions(), b.num_conditions()) << at;
    EXPECT_EQ(a.gamma_abs(), b.gamma_abs()) << at;
    for (int p = 0; p < a.num_conditions(); ++p) {
      ASSERT_EQ(a.condition_at(p), b.condition_at(p)) << at << " pos " << p;
      ASSERT_EQ(a.FirstSuccessorPos(p), b.FirstSuccessorPos(p))
          << at << " pos " << p;
      ASSERT_EQ(a.LastPredecessorPos(p), b.LastPredecessorPos(p))
          << at << " pos " << p;
    }
  }
  const core::RWaveBitmapIndex& ia = got.index;
  const core::RWaveBitmapIndex& ib = want.index;
  ASSERT_EQ(ia.num_genes(), ib.num_genes()) << where;
  ASSERT_EQ(ia.num_conditions(), ib.num_conditions()) << where;
  ASSERT_EQ(ia.num_words(), ib.num_words()) << where;
  for (int g = 0; g < ia.num_genes(); ++g) {
    for (int c = 0; c < ia.num_conditions(); ++c) {
      ASSERT_EQ(ia.position(g, c), ib.position(g, c))
          << where << " gene " << g << " cond " << c;
    }
    for (int p = 0; p < ia.num_conditions(); ++p) {
      const uint64_t* ua = ia.UpCandidates(g, p);
      const uint64_t* ub = ib.UpCandidates(g, p);
      const uint64_t* da = ia.DownCandidates(g, p);
      const uint64_t* db = ib.DownCandidates(g, p);
      for (int w = 0; w < ia.num_words(); ++w) {
        ASSERT_EQ(ua[w], ub[w])
            << where << " up gene " << g << " pos " << p << " word " << w;
        ASSERT_EQ(da[w], db[w])
            << where << " down gene " << g << " pos " << p << " word " << w;
      }
    }
  }
}

// UpdateAppend == fresh Build, under a policy where thresholds never move
// (kAbsolute) and one where the append widens ranges and forces per-gene
// rebuilds (kRangeFraction).
TEST(IncrementalModelDelta, UpdateAppendMatchesFreshBuild) {
  for (const core::GammaPolicy policy :
       {core::GammaPolicy::kAbsolute, core::GammaPolicy::kRangeFraction}) {
    const ExpressionMatrix full = RandomMatrix(777, 10, 12);
    std::vector<int> all_genes, prefix_conds;
    for (int g = 0; g < 10; ++g) all_genes.push_back(g);
    for (int c = 0; c < 9; ++c) prefix_conds.push_back(c);
    ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

    core::GammaSpec spec;
    spec.policy = policy;
    spec.gamma = (policy == core::GammaPolicy::kAbsolute) ? 1.0 : 0.1;
    auto prev = core::SharedGammaModel::Build(grown, spec, /*max_chain_need=*/4);
    ASSERT_NE(prev, nullptr);

    AppendColumnsFrom(full, 9, 3, &grown);
    auto delta = core::SharedGammaModel::UpdateAppend(*prev, grown, 9);
    auto fresh = core::SharedGammaModel::Build(grown, spec, 4);
    ASSERT_NE(delta, nullptr);
    ASSERT_NE(fresh, nullptr);
    ExpectModelsEqual(*delta, *fresh,
                      std::string("policy ") +
                          (policy == core::GammaPolicy::kAbsolute ? "abs"
                                                                  : "range"));
    if (HasFatalFailure()) return;
  }
}

// Satellite 3: bitmap widening across 64-bit word boundaries.  Starting
// widths straddle the boundary (63, 64) and appends of 1 and 2 columns
// produce 63->64, 63->65, 64->65, 64->66; every successor/predecessor
// row must be word-identical to a fresh-built index.
TEST(IncrementalModelDelta, WordBoundaryWideningMatchesFreshIndex) {
  for (const int start : {63, 64}) {
    for (const int step : {1, 2}) {
      const int final_width = start + step;
      const ExpressionMatrix full = RandomMatrix(
          1000 + static_cast<uint64_t>(start * 10 + step), 6, final_width);
      std::vector<int> all_genes, prefix_conds;
      for (int g = 0; g < 6; ++g) all_genes.push_back(g);
      for (int c = 0; c < start; ++c) prefix_conds.push_back(c);
      ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

      core::GammaSpec spec;
      spec.policy = core::GammaPolicy::kAbsolute;
      spec.gamma = 1.0;
      auto prev = core::SharedGammaModel::Build(grown, spec, 4);
      ASSERT_NE(prev, nullptr);
      ASSERT_EQ(prev->index.num_words(), (start + 63) / 64);

      AppendColumnsFrom(full, start, step, &grown);
      auto delta = core::SharedGammaModel::UpdateAppend(*prev, grown, start);
      auto fresh = core::SharedGammaModel::Build(grown, spec, 4);
      ASSERT_NE(delta, nullptr);
      ASSERT_NE(fresh, nullptr);
      ASSERT_EQ(fresh->index.num_words(), (final_width + 63) / 64);
      ExpectModelsEqual(*delta, *fresh,
                        std::to_string(start) + "->" +
                            std::to_string(final_width));
      if (HasFatalFailure()) return;
    }
  }
}

// End-to-end mine across the 64-bit word boundary (64 -> 65 conditions,
// WordsForBits 1 -> 2): the word count grows, which trips the all-dirty
// fallback (per-root index_word_ops scale with the word stride, so no old
// slice may be reused).  On a pure shift pattern no gene ever drops, so a
// dense 64-condition profile would enumerate exponentially many chains;
// instead the shared profile has four flat *levels* (0/10/20/30 with
// gamma 4): conditions within a level never regulate each other, chains
// are at most 4 steps, and the dominant level-0 block keeps the candidate
// fan-out tiny.
TEST(IncrementalModelDelta, MineAcrossWordBoundaryAllDirty) {
  const int genes = 12, start = 64;
  auto level_of = [](int c) { return c < 52 ? 0 : 1 + (c - 52) / 4; };
  ExpressionMatrix grown(genes, start);
  for (int g = 0; g < genes; ++g) {
    const double shift = 1000.0 * g;
    for (int c = 0; c < start; ++c) grown(g, c) = 10.0 * level_of(c) + shift;
  }
  MinerOptions o;
  o.min_genes = 3;
  o.min_conditions = 4;
  o.gamma = 4.0;
  o.gamma_policy = core::GammaPolicy::kAbsolute;
  o.epsilon = 0.5;

  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_GT(seeded->clusters.size(), 0u);

  // The appended condition sits at level 0: within gamma of every level-0
  // root, so WITHOUT word growth most roots would be clean -- any splice
  // here can only come from skipping the fallback.
  std::vector<double> col(static_cast<size_t>(genes));
  for (int g = 0; g < genes; ++g) col[static_cast<size_t>(g)] = 1000.0 * g;
  ASSERT_TRUE(grown.AppendConditions({"c64"}, {col}).ok());

  auto next = MineIncremental(grown, start, o, seeded->state, seeded->model);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->roots_spliced, 0) << "word growth must invalidate all roots";
  EXPECT_EQ(next->roots_remined, start + 1);

  const Reference ref = FromScratch(grown, o);
  ExpectClustersEqual(next->clusters, ref.clusters, "word boundary");
  ExpectStatsEqual(next->stats, ref.stats, "word boundary");
}

// The splice path must actually splice.  A root stays clean iff the
// appended value is within gamma of it in every gene (then the new
// condition is in neither its successor nor predecessor candidates), so a
// shift-pattern matrix whose conditions cluster at flat levels keeps every
// same-level root clean when a new same-level time point arrives -- the
// steady-state time-course shape bench_threads' incremental section times.
TEST(IncrementalModelDelta, ShiftPatternAppendSplicesCleanRoots) {
  const int genes = 10, start = 12;
  // Conditions 0..8 at level 0; 9, 10, 11 at levels 1, 2, 3.
  auto level_of = [](int c) { return c < 9 ? 0 : c - 8; };
  ExpressionMatrix grown(genes, start);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < start; ++c) {
      grown(g, c) = 10.0 * level_of(c) + 1000.0 * g;
    }
  }
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 3;
  o.gamma = 4.0;
  o.gamma_policy = core::GammaPolicy::kAbsolute;
  o.epsilon = 0.5;

  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_GT(seeded->clusters.size(), 0u);

  // A new level-0 time point: regulated with the level-1..3 roots only.
  std::vector<double> col(static_cast<size_t>(genes));
  for (int g = 0; g < genes; ++g) col[static_cast<size_t>(g)] = 1000.0 * g;
  ASSERT_TRUE(grown.AppendConditions({"late"}, {col}).ok());

  auto next = MineIncremental(grown, start, o, seeded->state, seeded->model);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->roots_spliced, 9) << "level-0 roots must be spliced";
  EXPECT_EQ(next->roots_remined, 4) << "levels 1-3 plus the appended root";

  const Reference ref = FromScratch(grown, o);
  ExpectClustersEqual(next->clusters, ref.clusters, "shift splice");
  ExpectStatsEqual(next->stats, ref.stats, "shift splice");
}

// ComputeDirtyRoots marks exactly the appended roots plus old roots with a
// new condition directly in some gene's candidate band.
TEST(IncrementalModelDelta, ComputeDirtyRootsMatchesBandMembership) {
  const ExpressionMatrix full = RandomMatrix(31337, 8, 10);
  core::GammaSpec spec;
  spec.gamma = 0.15;
  auto model = core::SharedGammaModel::Build(full, spec, 4);
  ASSERT_NE(model, nullptr);
  const int first_new = 8;

  const std::vector<int> dirty = ComputeDirtyRoots(model->index, first_new);
  ASSERT_FALSE(dirty.empty());
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  // Appended roots are always present.
  for (int c = first_new; c < 10; ++c) {
    EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), c)) << c;
  }
  // An old root is dirty iff some gene has a new-condition bit in its
  // candidate rows at that root -- recomputed here by brute force.
  const core::RWaveBitmapIndex& index = model->index;
  for (int r = 0; r < first_new; ++r) {
    bool expect_dirty = false;
    for (int g = 0; g < index.num_genes() && !expect_dirty; ++g) {
      const int pos = index.position(g, r);
      const uint64_t* up = index.UpCandidates(g, pos);
      const uint64_t* down = index.DownCandidates(g, pos);
      for (int c = first_new; c < index.num_conditions(); ++c) {
        if ((up[c / 64] >> (c % 64)) & 1 || (down[c / 64] >> (c % 64)) & 1) {
          expect_dirty = true;
          break;
        }
      }
    }
    EXPECT_EQ(std::binary_search(dirty.begin(), dirty.end(), r), expect_dirty)
        << "root " << r;
  }
}

// ---------------------------------------------------------------------
// Durable state: round trip, corruption, and precondition checks.

IncrementalState SampleState() {
  const ExpressionMatrix data = RandomMatrix(5150, 7, 8);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  o.gamma = 0.1;
  o.epsilon = 0.3;
  auto result = MineInitial(data, o);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->state;
}

void ExpectStatesEqual(const IncrementalState& a, const IncrementalState& b) {
  EXPECT_EQ(a.semantic_options_hash, b.semantic_options_hash);
  EXPECT_EQ(a.matrix_hash, b.matrix_hash);
  EXPECT_EQ(a.num_genes, b.num_genes);
  EXPECT_EQ(a.num_conditions, b.num_conditions);
  EXPECT_EQ(a.flags, b.flags);
  ASSERT_EQ(a.roots.size(), b.roots.size());
  for (size_t i = 0; i < a.roots.size(); ++i) {
    EXPECT_EQ(a.roots[i].root, b.roots[i].root);
    ExpectStatsEqual(a.roots[i].stats, b.roots[i].stats,
                     "root " + std::to_string(i));
    ExpectClustersEqual(a.roots[i].clusters, b.roots[i].clusters,
                        "root " + std::to_string(i));
  }
}

TEST(IncrementalState, EncodeDecodeRoundTrip) {
  const IncrementalState state = SampleState();
  const std::string bytes = EncodeIncrementalState(state);
  auto decoded = DecodeIncrementalState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectStatesEqual(state, *decoded);
  // Re-encoding the decoded state reproduces the exact bytes.
  EXPECT_EQ(EncodeIncrementalState(*decoded), bytes);
}

TEST(IncrementalState, FileRoundTrip) {
  const IncrementalState state = SampleState();
  const std::string path = ::testing::TempDir() + "/inc_state_roundtrip.bin";
  ASSERT_TRUE(WriteIncrementalStateFile(path, state).ok());
  auto loaded = LoadIncrementalState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
  std::remove(path.c_str());
}

TEST(IncrementalState, EveryMalformedShapeIsCorruption) {
  const std::string bytes = EncodeIncrementalState(SampleState());

  // Truncated preamble.
  EXPECT_EQ(DecodeIncrementalState(bytes.substr(0, 7)).status().code(),
            util::StatusCode::kCorruption);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Version mismatch.
  {
    std::string bad = bytes;
    bad[8] = static_cast<char>(0x7f);
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Endianness mismatch.
  {
    std::string bad = bytes;
    bad[12] ^= 0xff;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // A flipped payload byte fails the record CRC.
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x01;
    EXPECT_EQ(DecodeIncrementalState(bad).status().code(),
              util::StatusCode::kCorruption);
  }
  // Torn tail (mid-record truncation at several depths).
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() - 5, bytes.size() / 2, size_t{20}}) {
    EXPECT_EQ(DecodeIncrementalState(bytes.substr(0, keep)).status().code(),
              util::StatusCode::kCorruption)
        << "keep " << keep;
  }
  // Trailing bytes after the end record.
  EXPECT_EQ(DecodeIncrementalState(bytes + std::string(4, '\0')).status().code(),
            util::StatusCode::kCorruption);
  // The empty string.
  EXPECT_EQ(DecodeIncrementalState("").status().code(),
            util::StatusCode::kCorruption);
}

TEST(IncrementalState, UnspliceableOptionsAreRejected) {
  const ExpressionMatrix data = RandomMatrix(11, 6, 6);
  MinerOptions base;
  base.min_genes = 2;
  base.min_conditions = 2;

  auto expect_invalid = [&](MinerOptions o, const std::string& what) {
    auto r = MineInitial(data, o);
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << what;
  };
  {
    MinerOptions o = base;
    o.max_nodes = 100;
    expect_invalid(o, "max_nodes");
  }
  {
    MinerOptions o = base;
    o.max_clusters = 5;
    expect_invalid(o, "max_clusters");
  }
  {
    MinerOptions o = base;
    o.deadline_ms = 1000;
    expect_invalid(o, "deadline_ms");
  }
  {
    MinerOptions o = base;
    o.root_set = {0, 1};
    expect_invalid(o, "root_set");
  }
  {
    MinerOptions o = base;
    o.capture_root_results = true;
    expect_invalid(o, "capture_root_results");
  }
  {
    MinerOptions o = base;
    o.model_cache_bytes = 1 << 20;
    expect_invalid(o, "model_cache_bytes");
  }
}

TEST(IncrementalState, MismatchedPrevIsFailedPrecondition) {
  const ExpressionMatrix full = RandomMatrix(606, 7, 9);
  std::vector<int> all_genes, prefix_conds;
  for (int g = 0; g < 7; ++g) all_genes.push_back(g);
  for (int c = 0; c < 7; ++c) prefix_conds.push_back(c);
  ExpressionMatrix grown = full.Submatrix(all_genes, prefix_conds);

  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  auto seeded = MineInitial(grown, o);
  ASSERT_TRUE(seeded.ok());
  AppendColumnsFrom(full, 7, 2, &grown);

  auto expect_precondition = [&](const ExpressionMatrix& data, int first_new,
                                 const MinerOptions& opts,
                                 const IncrementalState& prev,
                                 const std::string& what) {
    auto r = MineIncremental(data, first_new, opts, prev);
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition) << what;
  };

  // Different semantic options than the state was mined under.
  {
    MinerOptions changed = o;
    changed.epsilon += 0.25;
    expect_precondition(grown, 7, changed, seeded->state, "options hash");
  }
  // Dominance flag flipped relative to the recorded state.
  {
    MinerOptions changed = o;
    changed.remove_dominated = true;
    expect_precondition(grown, 7, changed, seeded->state, "dominance flag");
  }
  // A mutated old cell: the prefix is no longer the mined matrix.
  {
    ExpressionMatrix tampered = grown;
    tampered(3, 2) += 1.0;
    expect_precondition(tampered, 7, o, seeded->state, "prefix content");
  }
  // Wrong gene count.
  {
    std::vector<int> fewer = {0, 1, 2, 3, 4, 5};
    std::vector<int> conds;
    for (int c = 0; c < 9; ++c) conds.push_back(c);
    expect_precondition(full.Submatrix(fewer, conds), 7, o, seeded->state,
                        "gene count");
  }
  // first_new inconsistent with the recorded width.
  expect_precondition(grown, 6, o, seeded->state, "first_new");
  // Execution knobs (threads) are NOT part of the identity: same state,
  // different thread count must be accepted.
  {
    MinerOptions threaded = o;
    threaded.num_threads = 4;
    auto r = MineIncremental(grown, 7, threaded, seeded->state);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}


// ---------------------------------------------------------------------
// One ledger from both paths: a checkpointed mine that completes holds
// exactly the ledger MineInitial records -- root by root and byte for
// byte -- whether it ran fresh or resumed from a mid-run snapshot.

ExpressionMatrix LedgerMatrix() {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 120;
  cfg.num_conditions = 12;
  cfg.num_clusters = 3;
  cfg.avg_cluster_genes_fraction = 0.08;
  cfg.seed = 808;
  auto ds = synth::GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.ok());
  return ds->data;
}

MinerOptions LedgerOptions(int threads) {
  MinerOptions o;
  o.min_genes = 5;
  o.min_conditions = 4;
  o.gamma = 0.15;
  o.epsilon = 0.1;
  o.num_threads = threads;
  return o;
}

std::string LedgerTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameLedger(const RootLedger& got, const RootLedger& want) {
  ASSERT_TRUE(got.complete());
  ExpectStatesEqual(got, want);
  EXPECT_EQ(EncodeIncrementalState(got), EncodeIncrementalState(want));
}

TEST(RootLedger, FreshCheckpointedMineEqualsMineInitial) {
  const ExpressionMatrix data = LedgerMatrix();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const MinerOptions o = LedgerOptions(threads);
    auto initial = MineInitial(data, o);
    ASSERT_TRUE(initial.ok()) << initial.status().ToString();

    CheckpointConfig config;
    config.path = LedgerTempPath("ledger_fresh_t" + std::to_string(threads));
    config.synchronous = true;
    config.initial_chunk_nodes = 64;
    config.every_ms = 1;
    auto mined = RunCheckpointedMine(data, o, config, nullptr);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    auto snap = LoadCheckpoint(config.path);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ExpectSameLedger(snap->mine.ledger, initial->state);
    ExpectClustersEqual(mined->clusters, initial->clusters, "output");
  }
}

TEST(RootLedger, ResumedCheckpointedMineEqualsMineInitial) {
  const ExpressionMatrix data = LedgerMatrix();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const MinerOptions o = LedgerOptions(threads);
    auto initial = MineInitial(data, o);
    ASSERT_TRUE(initial.ok()) << initial.status().ToString();

    // A synchronous run from one-node chunks leaves its penultimate
    // (mid-run) snapshot in the buffer the final write did not target.
    CheckpointConfig config;
    config.path = LedgerTempPath("ledger_midrun_t" + std::to_string(threads));
    config.synchronous = true;
    config.initial_chunk_nodes = 1;
    config.every_ms = 1;
    auto full = RunCheckpointedMine(data, o, config, nullptr);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_GE(full->checkpoint.writes, 2);
    auto last = LoadCheckpoint(config.path);
    ASSERT_TRUE(last.ok());
    auto midrun = LoadCheckpoint(
        CheckpointBufferPath(config.path, last->generation + 1));
    ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
    ASSERT_FALSE(midrun->mine.complete());
    ASSERT_GT(midrun->mine.ledger.next_root(), 0);

    CheckpointConfig resume_config;
    resume_config.path =
        LedgerTempPath("ledger_resumed_t" + std::to_string(threads));
    resume_config.synchronous = true;
    auto resumed = RunCheckpointedMine(data, o, resume_config, &midrun->mine);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    auto snap = LoadCheckpoint(resume_config.path);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ExpectSameLedger(snap->mine.ledger, initial->state);
    ExpectClustersEqual(resumed->clusters, initial->clusters, "output");
  }
}

TEST(RootLedger, RootRecordsOutOfOrderAreCorruption) {
  // CRC-valid state files whose root records do not count 0, 1, ... up to
  // num_conditions: a swapped pair, and a root past the matrix.
  IncrementalState swapped = SampleState();
  ASSERT_GE(swapped.roots.size(), 2u);
  std::swap(swapped.roots[0].root, swapped.roots[1].root);
  IncrementalState past_end = SampleState();
  past_end.num_conditions -= 1;  // the last root now lies past the matrix
  for (const IncrementalState& bad : {swapped, past_end}) {
    auto got = DecodeIncrementalState(EncodeIncrementalState(bad));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
    EXPECT_NE(got.status().message().find("root records out of order"),
              std::string::npos)
        << got.status().message();
  }
}

// ---------------------------------------------------------------------
// Re-framed mutation of the ledger and sweep decoders.  Flip, truncation
// and splice tests on whole files stop at the record CRC; these mutate
// the record *payloads* and re-frame them with a valid CRC, so the
// Cursor bounds checks and the decoders' structural checks must catch
// them.  Every input must fail with a Status or decode to a value that
// re-encodes to the same bytes.

// A snapshot split into its unframed preamble and record payloads.
struct Framed {
  std::string preamble;
  std::vector<std::string> payloads;

  std::string Join() const {
    std::string out = preamble;
    for (const std::string& p : payloads) util::AppendRecord(&out, p);
    return out;
  }
};

Framed Split(const std::string& bytes, size_t preamble) {
  Framed f;
  f.preamble = bytes.substr(0, preamble);
  util::RecordReader reader(std::string_view(bytes).substr(preamble));
  while (!reader.AtEnd()) {
    auto rec = reader.Next();
    EXPECT_TRUE(rec.ok());
    if (!rec.ok()) break;
    f.payloads.emplace_back(*rec);
  }
  return f;
}

// The three decoders under test, each with its own encoder.
struct Format {
  const char* name;
  size_t preamble;
  std::string (*roundtrip)(const std::string& bytes, bool* decoded);
};

std::string RoundTripState(const std::string& bytes, bool* decoded) {
  auto d = DecodeIncrementalState(bytes);
  *decoded = d.ok();
  return d.ok() ? EncodeIncrementalState(*d) : std::string();
}

std::string RoundTripCheckpoint(const std::string& bytes, bool* decoded) {
  auto d = DecodeCheckpoint(bytes);
  *decoded = d.ok();
  return d.ok() ? EncodeCheckpoint(*d) : std::string();
}

int ExpectFailsOrRoundTrips(const Format& fmt, const std::string& bytes,
                            const std::string& what) {
  bool decoded = false;
  const std::string again = fmt.roundtrip(bytes, &decoded);
  if (decoded) {
    EXPECT_EQ(again, bytes) << fmt.name << " " << what
                            << " decoded to a different value";
  }
  return decoded ? 1 : 0;
}

// Runs every mutation kind over every record of `seed_bytes`; `other` is a
// second valid encoding to splice with.
void MutateAll(const Format& fmt, const std::string& seed_bytes,
               const std::string& other, uint64_t seed) {
  SCOPED_TRACE(fmt.name);
  const Framed base = Split(seed_bytes, fmt.preamble);
  const Framed alt = Split(other, fmt.preamble);
  ASSERT_EQ(base.Join(), seed_bytes);
  util::Prng prng(seed);
  int inputs = 0, decoded = 0;
  auto check = [&](const Framed& f, const std::string& what) {
    ++inputs;
    decoded += ExpectFailsOrRoundTrips(fmt, f.Join(), what);
  };
  for (size_t r = 0; r < base.payloads.size(); ++r) {
    const std::string& p = base.payloads[r];
    const std::string rec = "record " + std::to_string(r);
    for (size_t i = 0; i < p.size(); ++i) {
      Framed f = base;  // one random bit of every byte
      f.payloads[r][i] ^= static_cast<char>(1u << prng.UniformInt(0, 7));
      check(f, rec + " flip at " + std::to_string(i));
    }
    for (size_t i = 0; i + 4 <= p.size(); ++i) {
      Framed f = base;  // every u32 count/length slot saturated
      f.payloads[r].replace(i, 4, 4, '\xFF');
      check(f, rec + " 0xFFFFFFFF at " + std::to_string(i));
    }
    for (size_t cut = 0; cut < p.size(); ++cut) {
      Framed f = base;
      f.payloads[r].resize(cut);
      check(f, rec + " truncated to " + std::to_string(cut));
    }
    for (int k = 0; k < 16; ++k) {
      const size_t at = static_cast<size_t>(
          prng.UniformInt(0, static_cast<int64_t>(p.size())));
      Framed ins = base;
      ins.payloads[r].insert(
          at, 1, static_cast<char>(prng.UniformInt(0, 255)));
      check(ins, rec + " insert at " + std::to_string(at));
      if (at < p.size()) {
        Framed del = base;
        del.payloads[r].erase(at, 1);
        check(del, rec + " delete at " + std::to_string(at));
      }
    }
    for (const std::string& q : alt.payloads) {
      for (int k = 0; k < 8; ++k) {
        const size_t i = static_cast<size_t>(
            prng.UniformInt(0, static_cast<int64_t>(p.size())));
        const size_t j = static_cast<size_t>(
            prng.UniformInt(0, static_cast<int64_t>(q.size())));
        Framed f = base;  // payload splice: head of ours, tail of theirs
        f.payloads[r] = p.substr(0, i) + q.substr(j);
        check(f, rec + " spliced");
      }
    }
  }
  // Record-level splices: our first k records, their records from m on.
  for (size_t k = 0; k <= base.payloads.size(); ++k) {
    for (size_t m = 0; m <= alt.payloads.size(); ++m) {
      Framed f = base;
      f.payloads.resize(k);
      f.payloads.insert(f.payloads.end(), alt.payloads.begin() + m,
                        alt.payloads.end());
      check(f, "records [0," + std::to_string(k) + ") + [" +
                   std::to_string(m) + ",end)");
    }
  }
  EXPECT_GT(inputs, 1000);
  // Most damage must be caught, not silently absorbed.
  EXPECT_LT(decoded, inputs / 2) << decoded << " of " << inputs;
}

IncrementalState StateForFuzz(uint64_t seed, double epsilon) {
  const ExpressionMatrix data = RandomMatrix(seed, 7, 6);
  MinerOptions o;
  o.min_genes = 2;
  o.min_conditions = 2;
  o.gamma = 0.1;
  o.epsilon = epsilon;
  auto result = MineInitial(data, o);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->state;
}

Checkpoint MineCheckpointForFuzz(const IncrementalState& state, size_t keep) {
  Checkpoint ckpt;
  ckpt.generation = 5;
  ckpt.kind = CheckpointKind::kMine;
  ckpt.mine.ledger = state;
  ckpt.mine.ledger.roots.resize(keep);
  ckpt.mine.nodes_visited = 321;
  ckpt.mine.wall_seconds = 0.5;
  ckpt.mine.mine_seconds = 0.25;
  ckpt.mine.peak_scratch_bytes = 4096;
  return ckpt;
}

Checkpoint SweepCheckpointForFuzz(const IncrementalState& state) {
  Checkpoint ckpt;
  ckpt.generation = 9;
  ckpt.kind = CheckpointKind::kSweep;
  SweepCheckpoint& s = ckpt.sweep;
  s.grid_hash = 0xFEEDFACE12345678ull;
  s.matrix_hash = state.matrix_hash;
  s.num_genes = state.num_genes;
  s.num_conditions = state.num_conditions;
  s.first_unfinished = 2;
  s.runs_total = 3;
  s.report.index_builds = 1;
  s.report.wall_seconds = 1.5;
  core::SweepRun ok_run;
  ok_run.executed = true;
  ok_run.used_shared_model = true;
  ok_run.stats = state.roots[0].stats;
  ok_run.outcome.status = core::MineStatus::kTruncated;
  ok_run.outcome.stop_reason = util::StopReason::kNodeBudget;
  ok_run.outcome.roots_completed = 1;
  ok_run.outcome.roots_total = 6;
  ok_run.clusters = state.roots[0].clusters;
  core::SweepRun failed_run;
  failed_run.status = util::Status::InvalidArgument("gamma out of range");
  s.report.runs = {ok_run, failed_run};
  return ckpt;
}

TEST(RootLedgerFuzz, ReframedLedgerStateMutationsFailOrRoundTrip) {
  const IncrementalState a = StateForFuzz(4242, 0.3);
  const IncrementalState b = StateForFuzz(4343, 0.5);
  ASSERT_FALSE(a.Output().empty());
  const Format fmt{"RGCXINC1", 16, RoundTripState};
  MutateAll(fmt, EncodeIncrementalState(a), EncodeIncrementalState(b), 11);
}

TEST(RootLedgerFuzz, ReframedMineCheckpointMutationsFailOrRoundTrip) {
  const IncrementalState a = StateForFuzz(4242, 0.3);
  const IncrementalState b = StateForFuzz(4343, 0.5);
  const Format fmt{"RGCXCKP1 mine", 28, RoundTripCheckpoint};
  MutateAll(fmt, EncodeCheckpoint(MineCheckpointForFuzz(a, 4)),
            EncodeCheckpoint(MineCheckpointForFuzz(b, 2)), 12);
}

TEST(RootLedgerFuzz, ReframedSweepCheckpointMutationsFailOrRoundTrip) {
  const IncrementalState a = StateForFuzz(4242, 0.3);
  const IncrementalState b = StateForFuzz(4343, 0.5);
  const Format fmt{"RGCXCKP1 sweep", 28, RoundTripCheckpoint};
  MutateAll(fmt, EncodeCheckpoint(SweepCheckpointForFuzz(a)),
            EncodeCheckpoint(SweepCheckpointForFuzz(b)), 13);
}

}  // namespace
}  // namespace io
}  // namespace regcluster
