// io::checkpoint contract tests:
//
//  * the RGCXCKP1 wire format round-trips both snapshot kinds and rejects
//    every malformed shape with a distinct kCorruption (short preamble, bad
//    magic/version/endianness/kind, torn records, missing records, count
//    mismatch, trailing bytes) -- a corrupt snapshot must never decode into
//    a plausible-but-wrong resume point;
//  * LoadCheckpoint picks the newest valid double-buffer and falls back to
//    the other buffer when the newest is torn;
//  * validators reject a snapshot against the wrong options / matrix /
//    grid with a distinct kFailedPrecondition each;
//  * RunCheckpointedMine / RunCheckpointedSweep are byte-identical to the
//    plain miner / sweep engine, both fresh and when resumed from a real
//    mid-run snapshot (the crash harness kills real processes; here the
//    mid-run snapshot is the penultimate buffer of a completed run).

#include "io/checkpoint.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gmock/gmock.h"
#include "gtest/gtest.h"
#include "core/miner.h"
#include "core/sweep.h"
#include "matrix/expression_matrix.h"
#include "matrix/store.h"
#include "synth/generator.h"
#include "util/durable_file.h"
#include "util/status.h"

namespace regcluster {
namespace io {
namespace {

using ::testing::HasSubstr;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

matrix::ExpressionMatrix TestMatrix() {
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

core::MinerOptions TestOptions() {
  core::MinerOptions opts;
  opts.min_genes = 5;
  opts.min_conditions = 4;
  opts.gamma = 0.15;
  opts.epsilon = 0.1;
  return opts;
}

core::RegCluster MakeCluster(int seed) {
  core::RegCluster c;
  c.chain = {seed, seed + 3, seed + 1};
  c.p_genes = {seed * 2, seed * 2 + 4};
  c.n_genes = {seed * 2 + 1};
  return c;
}

// A ledger over roots [0, covered) of a 120x12 matrix, each root with
// distinct counters and clusters.
RootLedger LedgerFixture(int covered) {
  RootLedger l;
  l.semantic_options_hash = 0x1234567890ABCDEFull;
  l.matrix_hash = {0xDEAD, 0xBEEF};
  l.num_genes = 120;
  l.num_conditions = 12;
  l.flags = kLedgerFlagRemoveDominated;
  for (int r = 0; r < covered; ++r) {
    core::RootMineResult slice;
    slice.root = r;
    core::MinerStats& s = slice.stats;
    s.nodes_expanded = 1111 + r;
    s.extensions_tested = 2222 + r;
    s.pruned_min_genes = 33 + r;
    s.pruned_p_majority = 44 + r;
    s.pruned_duplicate = 55 + r;
    s.pruned_coherence = 66 + r;
    s.genes_dropped_min_conds = 77 + r;
    s.clusters_emitted = r % 3;
    s.index_word_ops = 1010 + r;
    s.coherence_divide_calls = 2020 + r;
    s.coherence_scores = 3030 + r;
    s.dedup_probes = 4040 + r;
    for (int k = 0; k < r % 3; ++k) slice.clusters.push_back(MakeCluster(r + k));
    l.roots.push_back(std::move(slice));
  }
  return l;
}

Checkpoint MineFixture() {
  Checkpoint ckpt;
  ckpt.generation = 42;
  ckpt.kind = CheckpointKind::kMine;
  MineCheckpoint& m = ckpt.mine;
  m.ledger = LedgerFixture(7);
  m.nodes_visited = 99999;
  m.wall_seconds = 1.25;
  m.mine_seconds = 1.5;
  m.peak_scratch_bytes = 1 << 20;
  return ckpt;
}

Checkpoint SweepFixture() {
  Checkpoint ckpt;
  ckpt.generation = 9;
  ckpt.kind = CheckpointKind::kSweep;
  SweepCheckpoint& s = ckpt.sweep;
  s.grid_hash = 0xFEEDFACE12345678ull;
  s.matrix_hash = {0xAB, 0xCD};
  s.num_genes = 120;
  s.num_conditions = 12;
  s.first_unfinished = 2;
  s.runs_total = 4;
  s.report.index_builds = 1;
  s.report.shared_model_bytes = 65536;
  s.report.wall_seconds = 3.5;
  core::SweepRun ok_run;
  ok_run.executed = true;
  ok_run.used_shared_model = true;
  ok_run.stats.nodes_expanded = 500;
  ok_run.stats.clusters_emitted = 3;
  ok_run.outcome.status = core::MineStatus::kComplete;
  ok_run.outcome.nodes_visited = 512;
  ok_run.outcome.roots_completed = 12;
  ok_run.outcome.roots_total = 12;
  ok_run.clusters = {MakeCluster(2)};
  core::SweepRun failed_run;
  failed_run.executed = false;
  failed_run.status = util::Status::InvalidArgument("gamma out of range");
  s.report.runs = {ok_run, failed_run};
  return ckpt;
}

// ---------------------------------------------------------------------------
// Wire-format round trips.

TEST(CheckpointWireTest, MineRoundTripPreservesEveryField) {
  const Checkpoint want = MineFixture();
  auto got = DecodeCheckpoint(EncodeCheckpoint(want));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, CheckpointKind::kMine);
  const MineCheckpoint& m = got->mine;
  const MineCheckpoint& w = want.mine;
  EXPECT_EQ(m.ledger.semantic_options_hash, w.ledger.semantic_options_hash);
  EXPECT_EQ(m.ledger.matrix_hash, w.ledger.matrix_hash);
  EXPECT_EQ(m.ledger.num_genes, w.ledger.num_genes);
  EXPECT_EQ(m.ledger.num_conditions, w.ledger.num_conditions);
  EXPECT_EQ(m.ledger.flags, w.ledger.flags);
  EXPECT_EQ(m.ledger.next_root(), 7);
  EXPECT_EQ(m.nodes_visited, w.nodes_visited);
  EXPECT_EQ(m.wall_seconds, w.wall_seconds);
  EXPECT_EQ(m.mine_seconds, w.mine_seconds);
  EXPECT_EQ(m.peak_scratch_bytes, w.peak_scratch_bytes);
  ASSERT_EQ(m.ledger.roots.size(), w.ledger.roots.size());
  for (size_t r = 0; r < w.ledger.roots.size(); ++r) {
    const core::RootMineResult& a = m.ledger.roots[r];
    const core::RootMineResult& b = w.ledger.roots[r];
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
    EXPECT_EQ(a.stats.extensions_tested, b.stats.extensions_tested);
    EXPECT_EQ(a.stats.pruned_min_genes, b.stats.pruned_min_genes);
    EXPECT_EQ(a.stats.pruned_p_majority, b.stats.pruned_p_majority);
    EXPECT_EQ(a.stats.pruned_duplicate, b.stats.pruned_duplicate);
    EXPECT_EQ(a.stats.pruned_coherence, b.stats.pruned_coherence);
    EXPECT_EQ(a.stats.genes_dropped_min_conds,
              b.stats.genes_dropped_min_conds);
    EXPECT_EQ(a.stats.clusters_emitted, b.stats.clusters_emitted);
    EXPECT_EQ(a.stats.index_word_ops, b.stats.index_word_ops);
    EXPECT_EQ(a.stats.coherence_divide_calls, b.stats.coherence_divide_calls);
    EXPECT_EQ(a.stats.coherence_scores, b.stats.coherence_scores);
    EXPECT_EQ(a.stats.dedup_probes, b.stats.dedup_probes);
    ASSERT_EQ(a.clusters.size(), b.clusters.size()) << "root " << r;
    for (size_t i = 0; i < b.clusters.size(); ++i) {
      EXPECT_EQ(a.clusters[i], b.clusters[i]) << "root " << r << " cluster "
                                              << i;
    }
  }
  EXPECT_FALSE(m.complete());
  // The summed view is what a resumed run charges its budgets against.
  EXPECT_EQ(m.ledger.SummedStats().nodes_expanded,
            w.ledger.SummedStats().nodes_expanded);
}

TEST(CheckpointWireTest, SweepRoundTripPreservesRunsAndStatuses) {
  const Checkpoint want = SweepFixture();
  auto got = DecodeCheckpoint(EncodeCheckpoint(want));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->kind, CheckpointKind::kSweep);
  const SweepCheckpoint& s = got->sweep;
  const SweepCheckpoint& w = want.sweep;
  EXPECT_EQ(s.grid_hash, w.grid_hash);
  EXPECT_EQ(s.matrix_hash, w.matrix_hash);
  EXPECT_EQ(s.first_unfinished, w.first_unfinished);
  EXPECT_EQ(s.runs_total, w.runs_total);
  const core::SweepReport& r = s.report;
  const core::SweepReport& wr = w.report;
  EXPECT_EQ(r.index_builds, wr.index_builds);
  EXPECT_EQ(r.shared_model_bytes, wr.shared_model_bytes);
  EXPECT_EQ(r.wall_seconds, wr.wall_seconds);
  // The aggregates over the run records are derived on decode.
  EXPECT_EQ(r.runs_executed, 1);
  EXPECT_EQ(r.nodes_total, 500);
  EXPECT_EQ(r.clusters_total, 1);
  ASSERT_EQ(r.runs.size(), 2u);
  EXPECT_TRUE(r.runs[0].executed);
  EXPECT_TRUE(r.runs[0].used_shared_model);
  EXPECT_EQ(r.runs[0].stats.nodes_expanded, 500);
  EXPECT_EQ(r.runs[0].outcome.nodes_visited, 512);
  EXPECT_EQ(r.runs[0].outcome.roots_completed, 12);
  ASSERT_EQ(r.runs[0].clusters.size(), 1u);
  EXPECT_EQ(r.runs[0].clusters[0], wr.runs[0].clusters[0]);
  EXPECT_FALSE(r.runs[1].executed);
  EXPECT_EQ(r.runs[1].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_THAT(r.runs[1].status.message(), HasSubstr("gamma out of range"));
}

TEST(CheckpointWireTest, BufferPathAlternatesByGenerationParity) {
  EXPECT_EQ(CheckpointBufferPath("ck", 2), "ck.a");
  EXPECT_EQ(CheckpointBufferPath("ck", 3), "ck.b");
  EXPECT_EQ(CheckpointBufferPath("ck", 4), "ck.a");
}

// ---------------------------------------------------------------------------
// Malformed snapshots: a distinct kCorruption per shape.

void ExpectCorruption(std::string_view bytes, const std::string& substr) {
  auto got = DecodeCheckpoint(bytes);
  ASSERT_FALSE(got.ok()) << "decoded despite: " << substr;
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(got.status().message(), HasSubstr(substr));
}

TEST(CheckpointCorruptionTest, ShortPreamble) {
  ExpectCorruption("RGCX", "shorter than preamble");
  ExpectCorruption("", "shorter than preamble");
}

TEST(CheckpointCorruptionTest, BadMagic) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[0] = 'X';
  ExpectCorruption(bytes, "bad checkpoint magic");
}

TEST(CheckpointCorruptionTest, UnsupportedVersion) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[8] = 99;  // version u32 follows the 8-byte magic
  ExpectCorruption(bytes, "unsupported checkpoint version 99");
}

TEST(CheckpointCorruptionTest, VersionOneAsksForARestart) {
  // Version 1 stored a cluster prefix instead of the root ledger, version 2
  // a resume token per sweep run; either is a named precondition failure,
  // not corruption.
  for (const char version : {1, 2}) {
    for (const Checkpoint& ckpt : {MineFixture(), SweepFixture()}) {
      std::string bytes = EncodeCheckpoint(ckpt);
      bytes[8] = version;
      auto got = DecodeCheckpoint(bytes);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), util::StatusCode::kFailedPrecondition);
      EXPECT_THAT(got.status().message(),
                  HasSubstr("version " + std::to_string(version)));
      EXPECT_THAT(got.status().message(), HasSubstr("delete the snapshot"));
    }
  }
}

TEST(CheckpointCorruptionTest, EndiannessMismatch) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  std::swap(bytes[12], bytes[15]);  // byte-swap the endian tag
  ExpectCorruption(bytes, "endianness mismatch");
}

TEST(CheckpointCorruptionTest, UnknownKind) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[16] = 7;  // kind u32: neither kMine=1 nor kSweep=2
  ExpectCorruption(bytes, "unknown checkpoint kind 7");
}

TEST(CheckpointCorruptionTest, BitFlippedRecordPayload) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  bytes[28 + 8] ^= 0x20;  // first payload byte of the first framed record
  ExpectCorruption(bytes, "record checksum mismatch");
}

TEST(CheckpointCorruptionTest, MissingTrailingRecords) {
  // Cut the stream at each interior record boundary: the decoder must
  // report a *missing* record, never return a partial checkpoint.
  const std::string bytes = EncodeCheckpoint(MineFixture());
  const std::string_view body = std::string_view(bytes).substr(28);
  util::RecordReader reader(body);
  std::vector<size_t> boundaries;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.Next().ok());
    boundaries.push_back(28 + reader.position());
  }
  ASSERT_GE(boundaries.size(), 2u);
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    ExpectCorruption(bytes.substr(0, boundaries[i]),
                     "missing checkpoint record");
  }
}

TEST(CheckpointCorruptionTest, TrailingBytesAfterFooter) {
  std::string bytes = EncodeCheckpoint(MineFixture());
  util::AppendRecord(&bytes, "one record too many");
  ExpectCorruption(bytes, "trailing bytes after checkpoint footer");
}

// CRC-valid sweep snapshots whose run records contradict the aggregate:
// resuming them would double-count a point or leave one unmined.
TEST(CheckpointCorruptionTest, SweepRunRecordsOutOfOrder) {
  // Swap the two (individually CRC-framed) run records: every frame stays
  // valid, only the order is wrong.
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  util::RecordReader reader(std::string_view(bytes).substr(28));
  std::vector<std::string> records;
  while (!reader.AtEnd()) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    records.emplace_back(*rec);
  }
  ASSERT_EQ(records.size(), 5u);  // context, aggregate, 2 runs, end
  std::swap(records[2], records[3]);
  std::string swapped = bytes.substr(0, 28);
  for (const std::string& rec : records) util::AppendRecord(&swapped, rec);
  ExpectCorruption(swapped, "sweep run records out of order");
}

TEST(CheckpointCorruptionTest, SweepRunCountDisagreesWithProgress) {
  Checkpoint ckpt = SweepFixture();  // first_unfinished = 2
  ckpt.sweep.report.runs.pop_back();
  ExpectCorruption(EncodeCheckpoint(ckpt),
                   "sweep run count disagrees with first_unfinished");
  Checkpoint complete = SweepFixture();
  complete.sweep.first_unfinished = -1;  // complete needs all 4 points
  ExpectCorruption(EncodeCheckpoint(complete),
                   "sweep run count disagrees with first_unfinished");
}

// CRC-valid snapshots whose field values lie outside their domain: the
// record is patched, then re-framed so every checksum still holds.
std::string PatchRecord(const std::string& bytes, size_t index,
                        size_t offset, uint64_t value, int width) {
  util::RecordReader reader(std::string_view(bytes).substr(28));
  std::string out = bytes.substr(0, 28);
  for (size_t i = 0; !reader.AtEnd(); ++i) {
    auto rec = reader.Next();
    EXPECT_TRUE(rec.ok());
    std::string payload(*rec);
    if (i == index) {
      for (int b = 0; b < width; ++b) {
        payload[offset + b] = static_cast<char>(value >> (8 * b));
      }
    }
    util::AppendRecord(&out, payload);
  }
  return out;
}

TEST(CheckpointCorruptionTest, SweepEnumsOutsideTheirDomain) {
  // Record 1 is the aggregate: tag, first_unfinished, runs_total, then the
  // status at byte 20 and the stop reason at 24.  Record 2 is the first
  // run: tag, index, status code at byte 8, ..., its outcome's stop reason
  // at 156 (after an empty message, two flags and the stats).
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  ExpectCorruption(PatchRecord(bytes, 1, 20, 2, 4), "field status");
  ExpectCorruption(PatchRecord(bytes, 1, 24, 6, 4), "field stop_reason");
  ExpectCorruption(PatchRecord(bytes, 2, 8, 9, 4), "field run status code");
  ExpectCorruption(PatchRecord(bytes, 2, 156, 6, 4),
                   "field outcome stop_reason");
}

TEST(CheckpointCorruptionTest, NegativeOrOverflowingCountersAreRejected) {
  // A resumed run subtracts the stored counters from the user's budgets, so
  // a negative one would let it run past --max-nodes and two INT64_MAX
  // slices would overflow the summed stats.  Ledger root records carry
  // nodes_expanded at byte 8 (after the tag and the root id); sweep run
  // records at byte 24.
  const std::string mine = EncodeCheckpoint(MineFixture());
  ExpectCorruption(PatchRecord(mine, 1, 8, static_cast<uint64_t>(-1), 8),
                   "field nodes_expanded");
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  const std::string one_max = PatchRecord(mine, 1, 8, kMax, 8);
  ExpectCorruption(PatchRecord(one_max, 2, 8, kMax, 8), "field nodes_expanded");
  const std::string sweep = EncodeCheckpoint(SweepFixture());
  ExpectCorruption(PatchRecord(sweep, 2, 24, static_cast<uint64_t>(-5), 8),
                   "field nodes_expanded");
}

TEST(CheckpointCorruptionTest, EveryTruncationPointIsRejected) {
  // A torn write can stop at any byte; no prefix may decode.
  const std::string bytes = EncodeCheckpoint(SweepFixture());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto got = DecodeCheckpoint(bytes.substr(0, cut));
    ASSERT_FALSE(got.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
  }
}

TEST(CheckpointCorruptionTest, EveryFramedByteFlipIsRejected) {
  // Flip each byte past the preamble (the CRC-framed region): every flip
  // must be caught.  (The preamble's generation field is intentionally
  // outside the framing -- the loader cross-checks it against the buffer
  // name and min_generation instead.)
  const std::string bytes = EncodeCheckpoint(MineFixture());
  for (size_t i = 28; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    auto got = DecodeCheckpoint(flipped);
    EXPECT_FALSE(got.ok()) << "flip at byte " << i << " decoded";
  }
}

// ---------------------------------------------------------------------------
// LoadCheckpoint buffer selection.

TEST(LoadCheckpointTest, MissingFilesAreNotFound) {
  auto got = LoadCheckpoint(TempPath("ck_never_written"));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kNotFound);
}

TEST(LoadCheckpointTest, PicksNewestValidBuffer) {
  const std::string base = TempPath("ck_newest");
  Checkpoint older = MineFixture();
  older.generation = 4;
  Checkpoint newer = MineFixture();
  newer.generation = 5;
  newer.mine.ledger = LedgerFixture(9);
  ASSERT_TRUE(WriteCheckpointFile(base, older).ok());  // -> base.a
  ASSERT_TRUE(WriteCheckpointFile(base, newer).ok());  // -> base.b
  auto got = LoadCheckpoint(base);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 5u);
  EXPECT_EQ(got->mine.ledger.next_root(), 9);
}

TEST(LoadCheckpointTest, FallsBackWhenNewestBufferIsTorn) {
  const std::string base = TempPath("ck_torn");
  Checkpoint older = MineFixture();
  older.generation = 4;
  Checkpoint newer = MineFixture();
  newer.generation = 5;
  ASSERT_TRUE(WriteCheckpointFile(base, older).ok());
  ASSERT_TRUE(WriteCheckpointFile(base, newer).ok());
  // Tear the newer buffer the way a crash mid-write would.
  auto torn = util::ReadFileToString(base + ".b");
  ASSERT_TRUE(torn.ok());
  ASSERT_TRUE(
      util::AtomicWriteFile(base + ".b", torn->substr(0, torn->size() / 2))
          .ok());
  auto got = LoadCheckpoint(base);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 4u);
}

TEST(LoadCheckpointTest, AllBuffersCorruptReportsFirstError) {
  const std::string base = TempPath("ck_allbad");
  ASSERT_TRUE(util::AtomicWriteFile(base + ".a", "garbage").ok());
  auto got = LoadCheckpoint(base);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
}

TEST(LoadCheckpointTest, BaseItselfMayBeALiteralSnapshot) {
  const std::string path = TempPath("ck_literal.snap");
  Checkpoint ckpt = MineFixture();
  ckpt.generation = 17;
  ASSERT_TRUE(util::AtomicWriteFile(path, EncodeCheckpoint(ckpt)).ok());
  auto got = LoadCheckpoint(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 17u);
}

TEST(LoadCheckpointTest, StaleGenerationIsFailedPrecondition) {
  const std::string base = TempPath("ck_stale");
  Checkpoint ckpt = MineFixture();
  ckpt.generation = 4;
  ASSERT_TRUE(WriteCheckpointFile(base, ckpt).ok());
  auto got = LoadCheckpoint(base, /*min_generation=*/10);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_THAT(got.status().message(),
              HasSubstr("stale checkpoint generation"));
}

// ---------------------------------------------------------------------------
// Content hashes and validators.

TEST(CheckpointHashTest, MatrixHashIdenticalAcrossResidentAndMappedPaths) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const util::Hash128 resident = HashMatrixContent(data);
  const std::string bin = TempPath("ckpt_hash_matrix.bin");
  ASSERT_TRUE(matrix::WriteBinaryMatrix(data, bin).ok());
  auto mapped = matrix::MappedMatrix::Open(bin);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(HashMatrixContent(*mapped), resident);
}

TEST(CheckpointHashTest, MatrixHashSensitiveToContent) {
  synth::SyntheticConfig cfg;
  cfg.num_genes = 30;
  cfg.num_conditions = 8;
  cfg.num_clusters = 2;
  cfg.avg_cluster_conditions = 4;
  cfg.avg_cluster_genes_fraction = 0.2;
  cfg.seed = 1;
  auto a = synth::GenerateSynthetic(cfg);
  cfg.seed = 2;
  auto b = synth::GenerateSynthetic(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(HashMatrixContent(a->data), HashMatrixContent(b->data));
}

TEST(CheckpointHashTest, SweepGridHashIsOrderSensitive) {
  core::MinerOptions p1 = TestOptions();
  core::MinerOptions p2 = TestOptions();
  p2.gamma = 0.2;
  EXPECT_NE(HashSweepGrid({p1, p2}), HashSweepGrid({p2, p1}));
  EXPECT_NE(HashSweepGrid({p1, p2}), HashSweepGrid({p1}));
  EXPECT_EQ(HashSweepGrid({p1, p2}), HashSweepGrid({p1, p2}));
}

class CheckpointValidateTest : public ::testing::Test {
 protected:
  CheckpointValidateTest()
      : data_(TestMatrix()),
        options_(TestOptions()),
        ledger_(NewLedger(data_, options_)) {}

  void ExpectRejected(const RootLedger& ledger, const std::string& substr) {
    util::Status st =
        CheckLedgerIdentity(ledger, data_, data_.num_conditions(), options_);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
    EXPECT_THAT(st.message(), HasSubstr(substr));
  }

  matrix::ExpressionMatrix data_;
  core::MinerOptions options_;  // remove_dominated defaults to false
  RootLedger ledger_;
};

TEST_F(CheckpointValidateTest, MatchingCheckpointPasses) {
  EXPECT_TRUE(
      CheckLedgerIdentity(ledger_, data_, data_.num_conditions(), options_)
          .ok());
}

TEST_F(CheckpointValidateTest, DominanceFlagMismatch) {
  RootLedger bad = ledger_;
  bad.flags = kLedgerFlagRemoveDominated;
  ExpectRejected(bad, "dominance-pass setting differs");
}

TEST_F(CheckpointValidateTest, OptionsHashMismatch) {
  RootLedger bad = ledger_;
  bad.semantic_options_hash ^= 1;
  ExpectRejected(bad, "different mining options");
}

TEST_F(CheckpointValidateTest, DimensionMismatch) {
  RootLedger bad = ledger_;
  bad.num_genes += 1;
  ExpectRejected(bad, "matrix dimensions differ");
}

TEST_F(CheckpointValidateTest, MatrixContentMismatch) {
  RootLedger bad = ledger_;
  bad.matrix_hash.lo ^= 1;
  ExpectRejected(bad, "different matrix");
}

TEST(ValidateSweepCheckpointTest, DistinctFailures) {
  const matrix::ExpressionMatrix data = TestMatrix();
  std::vector<core::MinerOptions> points = {TestOptions(), TestOptions()};
  points[1].gamma = 0.2;

  SweepCheckpoint good;
  good.grid_hash = HashSweepGrid(points);
  good.matrix_hash = HashMatrixContent(data);
  good.num_genes = data.num_genes();
  good.num_conditions = data.num_conditions();
  good.runs_total = 2;
  EXPECT_TRUE(ValidateSweepCheckpoint(good, data, points).ok());

  SweepCheckpoint wrong_count = good;
  wrong_count.runs_total = 3;
  util::Status st = ValidateSweepCheckpoint(wrong_count, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_THAT(st.message(), HasSubstr("grid size differs"));

  SweepCheckpoint wrong_grid = good;
  wrong_grid.grid_hash ^= 1;
  st = ValidateSweepCheckpoint(wrong_grid, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_THAT(st.message(), HasSubstr("different sweep grid"));

  SweepCheckpoint wrong_matrix = good;
  wrong_matrix.matrix_hash.hi ^= 1;
  st = ValidateSweepCheckpoint(wrong_matrix, data, points);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_THAT(st.message(), HasSubstr("different matrix"));
}

// ---------------------------------------------------------------------------
// CheckpointWriter.

TEST(CheckpointWriterTest, SynchronousWritesAlternateBuffersAndCount) {
  const std::string base = TempPath("ckw_sync");
  CheckpointWriter writer(base, /*next_generation=*/1, /*synchronous=*/true);
  writer.Submit(MineFixture());  // generation 1 -> .b
  writer.Submit(MineFixture());  // generation 2 -> .a
  EXPECT_TRUE(writer.last_error().ok());
  const CheckpointStats stats = writer.stats();
  EXPECT_EQ(stats.writes, 2);
  EXPECT_GT(stats.bytes, 0);
  auto b = LoadCheckpoint(base + ".b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->generation, 1u);
  auto a = LoadCheckpoint(base + ".a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->generation, 2u);
}

TEST(CheckpointWriterTest, EmptyPathDisablesWriting) {
  CheckpointWriter writer("", 1, /*synchronous=*/true);
  writer.Submit(MineFixture());
  EXPECT_TRUE(writer.WriteNow(MineFixture()).ok());
  EXPECT_EQ(writer.stats().writes, 0);
  EXPECT_TRUE(writer.last_error().ok());
}

TEST(CheckpointWriterTest, WriteFailureIsSticky) {
  const std::string base = TempPath("no_such_dir") + "/ckw";
  CheckpointWriter writer(base, 1, /*synchronous=*/true);
  writer.Submit(MineFixture());
  EXPECT_FALSE(writer.last_error().ok());
  EXPECT_EQ(writer.stats().writes, 0);
}

TEST(CheckpointWriterTest, NoteResumeCounts) {
  CheckpointWriter writer("", 1, true);
  writer.NoteResume();
  EXPECT_EQ(writer.stats().resumes, 1);
}

// ---------------------------------------------------------------------------
// Durable mine driver: byte identity with the plain miner.

void ExpectSameDeterministicStats(const core::MinerStats& a,
                                  const core::MinerStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.extensions_tested, b.extensions_tested);
  EXPECT_EQ(a.pruned_min_genes, b.pruned_min_genes);
  EXPECT_EQ(a.pruned_p_majority, b.pruned_p_majority);
  EXPECT_EQ(a.pruned_duplicate, b.pruned_duplicate);
  EXPECT_EQ(a.pruned_coherence, b.pruned_coherence);
  EXPECT_EQ(a.genes_dropped_min_conds, b.genes_dropped_min_conds);
  EXPECT_EQ(a.clusters_emitted, b.clusters_emitted);
  EXPECT_EQ(a.index_builds, b.index_builds);
}

void ExpectSameClusters(const std::vector<core::RegCluster>& a,
                        const std::vector<core::RegCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "cluster " << i;
  }
}

struct PlainMineResult {
  std::vector<core::RegCluster> clusters;
  core::MinerStats stats;
};

PlainMineResult PlainMine(const matrix::MatrixStore& data,
                          const core::MinerOptions& options) {
  core::RegClusterMiner miner(data, options);
  auto clusters = miner.Mine();
  EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
  return {*std::move(clusters), miner.stats()};
}

TEST(RunCheckpointedMineTest, FreshRunMatchesPlainMineAndSnapshotsComplete) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.path = TempPath("ckm_fresh");
  config.synchronous = true;
  config.initial_chunk_nodes = 64;  // force several chunks
  config.every_ms = 1;
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameClusters(got->clusters, want.clusters);
  ExpectSameDeterministicStats(got->stats, want.stats);
  EXPECT_EQ(got->outcome.status, core::MineStatus::kComplete);
  EXPECT_TRUE(got->checkpoint_status.ok());
  EXPECT_GE(got->checkpoint.writes, 1);

  // The final snapshot on disk says complete and holds the raw clusters.
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok()) << final_ckpt.status().ToString();
  EXPECT_TRUE(final_ckpt->mine.complete());
  ExpectSameClusters(final_ckpt->mine.ledger.Output(), want.clusters);
}

TEST(RunCheckpointedMineTest, AsynchronousWriterMatchesPlainMine) {
  // The latest-wins writer thread the CLI uses, under the most frequent
  // cadence: snapshots race the chunks, the output must not.
  const matrix::ExpressionMatrix data = TestMatrix();
  core::MinerOptions options = TestOptions();
  options.num_threads = 4;
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.path = TempPath("ckm_async");
  config.synchronous = false;
  config.initial_chunk_nodes = 1;
  config.every_ms = 1;
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameClusters(got->clusters, want.clusters);
  ExpectSameDeterministicStats(got->stats, want.stats);
  EXPECT_TRUE(got->checkpoint_status.ok());
  EXPECT_GE(got->checkpoint.writes, 1);

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok()) << final_ckpt.status().ToString();
  EXPECT_TRUE(final_ckpt->mine.complete());
  ExpectSameClusters(final_ckpt->mine.ledger.Output(), want.clusters);
}

TEST(RunCheckpointedMineTest, ResumeFromMidRunSnapshotIsByteIdentical) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();
  const PlainMineResult want = PlainMine(data, options);

  // A synchronous tiny-chunk run leaves its penultimate (mid-run) snapshot
  // in the buffer the final write did not target -- a real crash-surviving
  // artifact, not a hand-crafted one.
  CheckpointConfig config;
  config.path = TempPath("ckm_midrun");
  config.synchronous = true;
  config.initial_chunk_nodes = 64;
  config.every_ms = 1;
  auto full = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->checkpoint.writes, 2)
      << "mine finished in one chunk; shrink the chunk size";

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  const std::string other =
      CheckpointBufferPath(config.path, final_ckpt->generation + 1);
  auto midrun = LoadCheckpoint(other);
  ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
  ASSERT_FALSE(midrun->mine.complete());
  ASSERT_GT(midrun->mine.ledger.next_root(), 0);

  CheckpointConfig resume_config;  // no snapshot writing on the resume leg
  resume_config.next_generation = midrun->generation + 1;
  auto resumed =
      RunCheckpointedMine(data, options, resume_config, &midrun->mine);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameClusters(resumed->clusters, want.clusters);
  ExpectSameDeterministicStats(resumed->stats, want.stats);
  EXPECT_EQ(resumed->checkpoint.resumes, 1);
}

TEST(RunCheckpointedMineTest, ResumeUnderSpentBudgetStaysTruncated) {
  // The resumed run charges the ledger's nodes to the user's budget; a
  // budget the ledger already exceeds leaves nothing to mine -- it must not
  // wrap into "no budget" and mine the rest.
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();
  CheckpointConfig config;
  config.path = TempPath("ckm_spent");
  config.synchronous = true;
  config.initial_chunk_nodes = 64;
  config.every_ms = 1;
  ASSERT_TRUE(RunCheckpointedMine(data, options, config, nullptr).ok());
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  auto midrun = LoadCheckpoint(
      CheckpointBufferPath(config.path, final_ckpt->generation + 1));
  ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
  const int64_t covered = midrun->mine.ledger.next_root();
  ASSERT_GT(covered, 0);
  ASSERT_GT(midrun->mine.ledger.SummedStats().nodes_expanded, 1);

  core::MinerOptions spent = options;
  spent.max_nodes = 1;
  auto resumed =
      RunCheckpointedMine(data, spent, CheckpointConfig{}, &midrun->mine);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->outcome.status, core::MineStatus::kTruncated);
  EXPECT_EQ(resumed->outcome.stop_reason, util::StopReason::kNodeBudget);
  EXPECT_EQ(resumed->outcome.roots_completed, covered);
  ExpectSameClusters(resumed->clusters, midrun->mine.ledger.Output());
}

TEST(RunCheckpointedMineTest, CompleteSnapshotShortCircuits) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();

  CheckpointConfig config;
  config.path = TempPath("ckm_complete");
  config.synchronous = true;
  auto first = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(first.ok());

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  ASSERT_TRUE(final_ckpt->mine.complete());

  CheckpointConfig replay_config;
  auto replayed =
      RunCheckpointedMine(data, options, replay_config, &final_ckpt->mine);
  ASSERT_TRUE(replayed.ok());
  ExpectSameClusters(replayed->clusters, first->clusters);
  ExpectSameDeterministicStats(replayed->stats, first->stats);
}

TEST(RunCheckpointedMineTest, RemoveDominatedAppliesOnceAtCompletion) {
  const matrix::ExpressionMatrix data = TestMatrix();
  core::MinerOptions options = TestOptions();
  options.remove_dominated = true;
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.path = TempPath("ckm_domin");
  config.synchronous = true;
  config.initial_chunk_nodes = 64;
  config.every_ms = 1;
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok());
  ExpectSameClusters(got->clusters, want.clusters);

  // The snapshot stores the *raw* slices (flagged), so a resumed run can
  // re-apply the global pass on the full output.
  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  EXPECT_EQ(final_ckpt->mine.ledger.flags & kLedgerFlagRemoveDominated,
            kLedgerFlagRemoveDominated);
  EXPECT_GE(final_ckpt->mine.ledger.SummedStats().clusters_emitted,
            static_cast<int64_t>(got->clusters.size()));
  ExpectSameClusters(final_ckpt->mine.ledger.Output(), want.clusters);
}

TEST(RunCheckpointedMineTest, ProfilePhasesReportsPhaseTimings) {
  const matrix::ExpressionMatrix data = TestMatrix();
  core::MinerOptions options = TestOptions();
  options.profile_phases = true;
  const PlainMineResult want = PlainMine(data, options);

  CheckpointConfig config;
  config.initial_chunk_nodes = 64;
  auto got = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDeterministicStats(got->stats, want.stats);
  EXPECT_EQ(got->stats.filter_ns > 0, want.stats.filter_ns > 0);
  EXPECT_EQ(got->stats.score_ns > 0, want.stats.score_ns > 0);
  EXPECT_EQ(got->stats.sort_ns > 0, want.stats.sort_ns > 0);
  EXPECT_EQ(got->stats.emit_ns > 0, want.stats.emit_ns > 0);
  EXPECT_GT(want.stats.filter_ns, 0);
  EXPECT_GT(want.stats.sort_ns, 0);
}

TEST(RunCheckpointedMineTest, RejectsRootSet) {
  // The ledger covers roots 0, 1, ... in order; a root subset has no
  // place in it.
  core::MinerOptions options = TestOptions();
  options.root_set = {1, 3};
  auto got = RunCheckpointedMine(TestMatrix(), options, CheckpointConfig{},
                                 nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RunCheckpointedMineTest, RejectsSnapshotFromDifferentOptions) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const core::MinerOptions options = TestOptions();

  CheckpointConfig config;
  config.path = TempPath("ckm_reject");
  config.synchronous = true;
  auto first = RunCheckpointedMine(data, options, config, nullptr);
  ASSERT_TRUE(first.ok());
  auto ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(ckpt.ok());

  core::MinerOptions different = options;
  different.epsilon = 0.2;
  auto resumed =
      RunCheckpointedMine(data, different, CheckpointConfig{}, &ckpt->mine);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Durable sweep driver.

std::vector<core::MinerOptions> TestGrid() {
  core::MinerOptions base = TestOptions();
  std::vector<core::MinerOptions> points;
  for (double gamma : {0.12, 0.18}) {  // two gamma groups of two points
    for (double eps : {0.08, 0.12}) {
      core::MinerOptions p = base;
      p.gamma = gamma;
      p.epsilon = eps;
      points.push_back(p);
    }
  }
  return points;
}

void ExpectSameReports(const core::SweepReport& a,
                       const core::SweepReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.first_unfinished, b.first_unfinished);
  EXPECT_EQ(a.runs_executed, b.runs_executed);
  EXPECT_EQ(a.index_builds, b.index_builds);
  EXPECT_EQ(a.nodes_total, b.nodes_total);
  EXPECT_EQ(a.clusters_total, b.clusters_total);
  for (size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].executed, b.runs[i].executed) << "run " << i;
    EXPECT_EQ(a.runs[i].used_shared_model, b.runs[i].used_shared_model)
        << "run " << i;
    ExpectSameDeterministicStats(a.runs[i].stats, b.runs[i].stats);
    ExpectSameClusters(a.runs[i].clusters, b.runs[i].clusters);
  }
}

TEST(RunCheckpointedSweepTest, FreshRunMatchesSweepEngine) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;
  auto want = core::SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  CheckpointConfig config;
  config.path = TempPath("cks_fresh");
  config.synchronous = true;
  auto got = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameReports(got->report, *want);
  EXPECT_TRUE(got->checkpoint_status.ok());
  // One group-boundary snapshot + the final one.
  EXPECT_EQ(got->checkpoint.writes, 2);
}

TEST(RunCheckpointedSweepTest, ResumeFromGroupBoundaryIsByteIdentical) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;
  auto want = core::SweepEngine(data, sopts).Run(points);
  ASSERT_TRUE(want.ok());

  CheckpointConfig config;
  config.path = TempPath("cks_midrun");
  config.synchronous = true;
  auto full = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->checkpoint.writes, 2);

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  const std::string other =
      CheckpointBufferPath(config.path, final_ckpt->generation + 1);
  auto midrun = LoadCheckpoint(other);
  ASSERT_TRUE(midrun.ok()) << midrun.status().ToString();
  ASSERT_FALSE(midrun->sweep.complete());
  ASSERT_EQ(midrun->sweep.first_unfinished, 2);  // after the first group

  CheckpointConfig resume_config;
  resume_config.next_generation = midrun->generation + 1;
  auto resumed =
      RunCheckpointedSweep(data, points, sopts, resume_config, &midrun->sweep);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameReports(resumed->report, *want);
  EXPECT_EQ(resumed->checkpoint.resumes, 1);
}

TEST(RunCheckpointedSweepTest, CompleteSnapshotShortCircuits) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;

  CheckpointConfig config;
  config.path = TempPath("cks_complete");
  config.synchronous = true;
  auto first = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(first.ok());

  auto final_ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(final_ckpt.ok());
  ASSERT_TRUE(final_ckpt->sweep.complete());

  auto replayed = RunCheckpointedSweep(data, points, sopts,
                                       CheckpointConfig{}, &final_ckpt->sweep);
  ASSERT_TRUE(replayed.ok());
  ExpectSameReports(replayed->report, first->report);
}

TEST(RunCheckpointedSweepTest, RejectsSnapshotFromDifferentGrid) {
  const matrix::ExpressionMatrix data = TestMatrix();
  const std::vector<core::MinerOptions> points = TestGrid();
  core::SweepOptions sopts;

  CheckpointConfig config;
  config.path = TempPath("cks_reject");
  config.synchronous = true;
  auto first = RunCheckpointedSweep(data, points, sopts, config, nullptr);
  ASSERT_TRUE(first.ok());
  auto ckpt = LoadCheckpoint(config.path);
  ASSERT_TRUE(ckpt.ok());

  std::vector<core::MinerOptions> other_grid = points;
  other_grid[0].gamma = 0.33;
  auto resumed = RunCheckpointedSweep(data, other_grid, sopts,
                                      CheckpointConfig{}, &ckpt->sweep);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Volatile-field sanitization (--deterministic-output).

TEST(ZeroVolatileTest, MineFieldsZeroedDeterministicKept) {
  core::MinerStats stats;
  stats.nodes_expanded = 123;
  stats.rwave_build_seconds = 1.0;
  stats.index_build_seconds = 2.0;
  stats.mine_seconds = 3.0;
  core::MineOutcome outcome;
  outcome.nodes_visited = 456;
  outcome.wall_seconds = 4.0;
  outcome.peak_scratch_bytes = 789;
  outcome.roots_completed = 10;
  ZeroVolatileMineFields(&stats, &outcome);
  EXPECT_EQ(stats.nodes_expanded, 123);  // deterministic: preserved
  EXPECT_EQ(stats.rwave_build_seconds, 0.0);
  EXPECT_EQ(stats.index_build_seconds, 0.0);
  EXPECT_EQ(stats.mine_seconds, 0.0);
  EXPECT_EQ(outcome.nodes_visited, 0);
  EXPECT_EQ(outcome.wall_seconds, 0.0);
  EXPECT_EQ(outcome.peak_scratch_bytes, 0);
  EXPECT_EQ(outcome.roots_completed, 10);  // deterministic: preserved
}

TEST(ZeroVolatileTest, SweepFieldsZeroedPerRun) {
  core::SweepReport report;
  report.wall_seconds = 9.0;
  report.runs.resize(1);
  report.runs[0].executed = true;
  report.runs[0].stats.mine_seconds = 1.5;
  report.runs[0].outcome.wall_seconds = 2.5;
  report.runs[0].stats.clusters_emitted = 7;
  ZeroVolatileSweepFields(&report);
  EXPECT_EQ(report.wall_seconds, 0.0);
  EXPECT_EQ(report.runs[0].stats.mine_seconds, 0.0);
  EXPECT_EQ(report.runs[0].outcome.wall_seconds, 0.0);
  EXPECT_EQ(report.runs[0].stats.clusters_emitted, 7);
}

}  // namespace
}  // namespace io
}  // namespace regcluster
