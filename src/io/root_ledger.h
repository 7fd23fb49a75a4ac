// Root ledger: the per-root result store behind durable resume
// (io/checkpoint.h) and time-course appends (io/incremental.h), plus the
// one record codec every io snapshot format is written with.
//
// Each root's clusters and deterministic counters are independent of every
// other root's (MinerOptions::capture_root_results), so a run is a ledger:
// an identity plus the (stats, clusters) slices of the root prefix [0, k).
// A checkpointed mine fills it chunk by chunk; an incremental mine keeps
// it complete and re-mines only an append's dirty roots.  Next root,
// counters and output are derived from the slices, never stored twice.
// The ledger's records (context, one per root, end) are the RGCXINC1 body
// byte for byte; MinerStats::*_ns are volatile and not persisted.

#ifndef REGCLUSTER_IO_ROOT_LEDGER_H_
#define REGCLUSTER_IO_ROOT_LEDGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/miner.h"
#include "matrix/store.h"
#include "util/durable_file.h"
#include "util/hash128.h"
#include "util/status.h"

namespace regcluster {
namespace io {

// ---------------------------------------------------------------------------
// Record codec.

void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, const std::string& s);
/// The 16 bytes every io snapshot starts with: magic, version, endian tag.
void PutPreamble(std::string* out, std::string_view magic, uint32_t version);

/// Bounds-checked sequential decoder over one record payload.  Errors are
/// sticky: the first damaged read records a kCorruption naming the format
/// (`noun`, e.g. "checkpoint") and the field, leaves its output untouched,
/// and turns every later read into a no-op; Done() reports it.
class Cursor {
 public:
  Cursor(std::string_view data, const char* noun) : data_(data), noun_(noun) {}

  void ReadU32(const char* field, uint32_t* v);
  void ReadU64(const char* field, uint64_t* v);
  void ReadI64(const char* field, int64_t* v);
  void ReadInt(const char* field, int* v);  ///< an i64 that must fit an int
  void ReadDouble(const char* field, double* v);
  void ReadBool(const char* field, bool* v);  ///< a u32 that must be 0 or 1
  /// A u32 that must be <= max (an enum's wire value).
  void ReadEnum(const char* field, uint32_t max, uint32_t* v);
  void ReadString(const char* field, std::string* v);
  void ReadIntVector(const char* field, std::vector<int>* v);

  bool ok() const { return status_.ok(); }
  /// Records a kCorruption for a `what` (e.g. "out-of-range") `field`,
  /// unless an earlier error already did.
  void Fail(const char* field, const char* what);
  /// The first read error, else kCorruption unless the whole payload of
  /// `record` was consumed.
  util::Status Done(const char* record) const;
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(const char* field, uint64_t bytes);
  uint64_t ReadLE(const char* field, int bytes);

  std::string_view data_;
  size_t pos_ = 0;
  const char* noun_;
  util::Status status_;
};

/// Checks a snapshot preamble of `size` bytes -- `magic`, u32 version, u32
/// endian tag, format fields -- and returns a cursor over the format fields.
util::StatusOr<Cursor> ReadPreamble(std::string_view bytes, size_t size,
                                    std::string_view magic, const char* noun,
                                    uint32_t* version);

/// Sequential reader of tagged records: util::RecordReader frames whose
/// payload starts with a u32 tag.
class RecordStream {
 public:
  RecordStream(std::string_view body, const char* noun)
      : reader_(body), noun_(noun) {}

  bool AtEnd() const { return reader_.AtEnd(); }
  /// The next record (its tag in *tag), as a cursor past the tag; `what`
  /// names the expected record in errors.
  util::StatusOr<Cursor> Next(const char* what, uint32_t* tag);
  /// The next record, which must carry `tag`.
  util::StatusOr<Cursor> Expect(uint32_t tag, const char* what);
  const char* noun() const { return noun_; }

 private:
  util::RecordReader reader_;
  const char* noun_;
};

/// The context record every snapshot opens with: a run hash (semantic
/// options or sweep grid), then the matrix identity and flags of `s`, a
/// RootLedger or a SweepCheckpoint.
template <typename S>
void PutContext(std::string* out, uint32_t tag, uint64_t hash, const S& s) {
  std::string rec;
  PutU32(&rec, tag);
  PutU64(&rec, hash);
  PutU64(&rec, s.matrix_hash.hi);
  PutU64(&rec, s.matrix_hash.lo);
  PutI64(&rec, s.num_genes);
  PutI64(&rec, s.num_conditions);
  PutU32(&rec, s.flags);
  util::AppendRecord(out, rec);
}

template <typename S>
util::Status ReadContext(RecordStream* in, uint32_t tag, uint64_t* hash,
                         S* s) {
  auto c = in->Expect(tag, "context");
  if (!c.ok()) return c.status();
  c->ReadU64("context hash", hash);
  c->ReadU64("matrix_hash.hi", &s->matrix_hash.hi);
  c->ReadU64("matrix_hash.lo", &s->matrix_hash.lo);
  c->ReadI64("num_genes", &s->num_genes);
  c->ReadI64("num_conditions", &s->num_conditions);
  c->ReadU32("flags", &s->flags);
  return c->Done("context");
}

/// MinerStats: 13 i64 counters then 3 doubles, in declaration order.  On
/// read, a negative counter is corruption, and so is one that overflows
/// `*total`, the running sum of the records decoded so far: drivers sum
/// and subtract these counters from user budgets.
void PutMinerStats(std::string* out, const core::MinerStats& s);
void ReadMinerStats(Cursor* c, core::MinerStats* s, core::MinerStats* total);

/// Clusters: u64 count, then per cluster chain, p_genes and n_genes, each a
/// u32 count and u32 values.
void PutClusters(std::string* out,
                 const std::vector<core::RegCluster>& clusters);
void ReadClusters(Cursor* c, std::vector<core::RegCluster>* clusters);

// ---------------------------------------------------------------------------
// The ledger.

/// Set in RootLedger::flags when the user mines with remove_dominated:
/// slices are mined without it (a global post-pass cannot be attributed to
/// roots) and the pass runs once over a complete ledger's output.
inline constexpr uint32_t kLedgerFlagRemoveDominated = 1u << 0;

struct RootLedger {
  /// RegClusterMiner::SemanticOptionsHash of SliceOptions(user options).
  uint64_t semantic_options_hash = 0;
  /// HashMatrixContent of the matrix the slices were mined over.
  util::Hash128 matrix_hash{0, 0};
  int64_t num_genes = 0;
  int64_t num_conditions = 0;
  uint32_t flags = 0;  ///< kLedgerFlag* bits
  /// Slices of roots 0, 1, ..., k-1 in order; clusters are pre-dominance.
  std::vector<core::RootMineResult> roots;

  /// First root without a slice; -1 once every root has one.
  int64_t next_root() const {
    const int64_t k = static_cast<int64_t>(roots.size());
    return k < num_conditions ? k : -1;
  }
  bool complete() const { return next_root() < 0; }
  /// Every slice's counters summed (core::AccumulateStats); the run-level
  /// fields (index_builds, *_seconds) are left 0 for the caller.
  core::MinerStats SummedStats() const;
  /// Every slice's clusters in root order, with the remove_dominated pass
  /// applied when flags ask for it and the ledger is complete.
  std::vector<core::RegCluster> Output() const;
};

/// The options every root slice is mined under: the user's, with the global
/// remove_dominated post-pass deferred (kLedgerFlagRemoveDominated).
core::MinerOptions SliceOptions(const core::MinerOptions& options);

/// An empty ledger for mining `data` under `options`.
RootLedger NewLedger(const matrix::MatrixStore& data,
                     const core::MinerOptions& options);

/// Checks that `ledger` may continue a run over the first `cols` conditions
/// of `data` under `options`: dominance flag, semantic options hash, then
/// CheckMatrixIdentity.  Each mismatch is a distinct kFailedPrecondition.
util::Status CheckLedgerIdentity(const RootLedger& ledger,
                                 const matrix::MatrixStore& data, int cols,
                                 const core::MinerOptions& options);

/// The matrix half of a snapshot identity: dims, then the content hash of
/// the first `cols` conditions of `data`.
util::Status CheckMatrixIdentity(int64_t num_genes, int64_t num_conditions,
                                 const util::Hash128& matrix_hash,
                                 const matrix::MatrixStore& data, int cols);

/// Appends the ledger's records (context, roots, end) to `out`.
void EncodeLedgerRecords(const RootLedger& ledger, std::string* out);

/// Reads the records EncodeLedgerRecords wrote.  Malformed shapes (missing
/// or out-of-order records, roots out of order or past num_conditions, a
/// root count that disagrees with the records, counters ReadMinerStats
/// rejects) are kCorruption.
util::Status DecodeLedgerRecords(RecordStream* in, RootLedger* ledger);

/// FNV-128 content hash of the first `cols` conditions of a matrix (all of
/// them when `cols` < 0): dims, gene/condition labels and the raw IEEE-754
/// cells.  A pure function of the logical matrix -- identical for the
/// resident text path and the mmap'ed binary path -- and, because
/// conditions only ever append at the end, a grown matrix reproduces the
/// hash of its pre-append self.
util::Hash128 HashMatrixContent(const matrix::MatrixStore& data,
                                int cols = -1);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_ROOT_LEDGER_H_
