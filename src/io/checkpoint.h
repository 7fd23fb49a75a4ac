// Durable checkpoint/restart for mines and sweeps.
//
// A long mine that dies to a crash, OOM kill or preemption would otherwise
// lose everything.  This module makes the run durable.  A checkpoint is a
// versioned binary snapshot (magic `RGCXCKP1`, format version 3) of
// everything needed to continue a run in a fresh process.  A mine snapshot
// is the run's io::RootLedger -- identity plus the per-root slices of the
// covered root prefix -- and a progress record of volatile telemetry; a
// sweep snapshot is the core::SweepReport of the completed points plus
// `first_unfinished`.  Snapshots are written with the atomic-replace +
// CRC32C framing of util/durable_file.h, double-buffered as `PATH.a` /
// `PATH.b` under a generation counter, so at every instant at least one
// complete valid snapshot exists on disk; the loader picks the newest valid
// buffer and falls back to the other when a crash tore the in-flight write.
//
// Execution model ("chunked mining"): rather than snapshotting DFS internals
// mid-flight, RunCheckpointedMine drives the existing deterministic
// machinery -- a sequence of Mine() calls over root_set = the roots the
// ledger does not cover yet, each truncated at a root boundary by a
// per-chunk node budget adapted to the requested checkpoint cadence.  Each
// chunk appends its roots' slices to the ledger.  Root slices are
// independent of each other, so the final clusters *and* the deterministic
// counters of a killed-and-resumed run are byte-identical to an
// uninterrupted one regardless of where the kill landed, and a complete
// ledger equals the one io::MineInitial records.  Snapshots are encoded and
// written off the mining hot path on a dedicated writer thread (latest-wins;
// the final snapshot of a run is always written synchronously).
//
// Every malformed on-disk shape is rejected with a distinct kCorruption
// status (mirroring the matrix-store hardening); semantic mismatches
// (different options, different matrix, stale generation, a snapshot of an
// older format version) are kFailedPrecondition.
// tests/io/checkpoint_test.cc and the process-level kill harness
// tests/integration/crash_harness.cc enforce the contract.

#ifndef REGCLUSTER_IO_CHECKPOINT_H_
#define REGCLUSTER_IO_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/sweep.h"
#include "io/root_ledger.h"
#include "matrix/store.h"
#include "util/hash128.h"
#include "util/status.h"

namespace regcluster {
namespace io {

enum class CheckpointKind : uint32_t {
  kMine = 1,
  kSweep = 2,
};

/// Durable-run progress counters, exported as
/// regcluster_checkpoint_{writes,bytes,last_write_ns,resumes}.
struct CheckpointStats {
  int64_t writes = 0;         ///< snapshots written (both buffers)
  int64_t bytes = 0;          ///< total encoded snapshot bytes written
  int64_t last_write_ns = 0;  ///< wall duration of the most recent write
  int64_t resumes = 0;        ///< runs continued from an on-disk snapshot
};

/// Snapshot of a (possibly unfinished) mine: the ledger of the roots
/// covered so far plus execution telemetry.  Next root, covered count,
/// counters and clusters all derive from the ledger.
struct MineCheckpoint {
  /// Identity (options hash, matrix hash, dims, dominance flag) and the
  /// slices of roots [0, ledger.next_root()).
  RootLedger ledger;
  /// Accumulated execution telemetry (scheduling-dependent; carried so a
  /// resumed run can report sensible totals).
  int64_t nodes_visited = 0;
  double wall_seconds = 0.0;
  double mine_seconds = 0.0;
  int64_t peak_scratch_bytes = 0;

  bool complete() const { return ledger.complete(); }
};

/// Snapshot of a (possibly unfinished) sweep.  Progress is tracked at gamma-
/// group boundaries (maximal consecutive points sharing gamma_policy+gamma):
/// `report` covers every point before `first_unfinished` and a kill
/// mid-group re-runs only that group.
struct SweepCheckpoint {
  /// HashSweepGrid over the expanded point list; a resume re-parses the
  /// --sweep spec and must land on the same grid.
  uint64_t grid_hash = 0;
  util::Hash128 matrix_hash{0, 0};
  int64_t num_genes = 0;
  int64_t num_conditions = 0;
  uint32_t flags = 0;
  /// First point index not covered by `report`; -1 when every point was
  /// attempted (the sweep finished, possibly truncated by its own budgets).
  int64_t first_unfinished = 0;
  int64_t runs_total = 0;
  /// The report so far: one run per covered point (its `options` are not
  /// stored -- a resume re-derives them from the spec) and the aggregates
  /// accumulated over the covered groups.  Its status, stop_reason and
  /// first_unfinished are final once complete().
  core::SweepReport report;

  bool complete() const { return first_unfinished < 0; }
};

/// A decoded snapshot file: generation + exactly one of the two payloads
/// (selected by `kind`).
struct Checkpoint {
  uint64_t generation = 0;
  CheckpointKind kind = CheckpointKind::kMine;
  MineCheckpoint mine;
  SweepCheckpoint sweep;
};

/// Serializes `ckpt` to the RGCXCKP1 wire format: a 28-byte preamble
/// (magic, version, endian tag, kind, generation) followed by CRC32C-framed
/// records (util::AppendRecord) and a count-bearing end record.  A mine
/// body is the ledger's records then a progress record; a sweep body is a
/// context record, an aggregate record and one record per covered point.
/// SweepReport's runs_executed, nodes_total and clusters_total are derived
/// from the run records on decode, not stored.
std::string EncodeCheckpoint(const Checkpoint& ckpt);

/// Inverse of EncodeCheckpoint.  Every malformed shape is a distinct
/// kCorruption: short preamble, bad magic, unsupported version, endianness
/// mismatch, unknown kind, torn/truncated/bit-flipped records (via
/// util::RecordReader), missing or out-of-order records, sweep run records
/// out of order or disagreeing with first_unfinished, field values outside
/// their domain (status codes, stop reasons, negative or overflowing
/// counters), record-count mismatch, trailing bytes.  A version-1 or
/// version-2 snapshot is kFailedPrecondition: delete it and restart the
/// run.
util::StatusOr<Checkpoint> DecodeCheckpoint(std::string_view bytes);

/// The double-buffer file a given generation lands in: `base` + ".a" for
/// even generations, ".b" for odd.  Alternating buffers means the previous
/// snapshot is never the rename target of the next write.
std::string CheckpointBufferPath(const std::string& base, uint64_t generation);

/// Encodes and atomically writes `ckpt` into its generation's buffer file.
util::Status WriteCheckpointFile(const std::string& base,
                                 const Checkpoint& ckpt);

/// Loads the newest valid snapshot reachable from `base`: tries `base`
/// itself (a literal snapshot file), `base.a` and `base.b`, and returns the
/// decodable candidate with the highest generation.  kNotFound when no
/// candidate file exists; the first decode error when candidates exist but
/// none decodes; kFailedPrecondition ("stale checkpoint generation") when
/// the best valid generation is below `min_generation`.
util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& base,
                                          uint64_t min_generation = 0);

/// Order-sensitive fingerprint of an expanded sweep grid (each point's
/// semantic options hash mixed in sequence).
uint64_t HashSweepGrid(const std::vector<core::MinerOptions>& points);

/// Validates that `ckpt` may resume a sweep over `data` on `points`: grid
/// size, grid hash, dims, matrix hash.  Each mismatch is a distinct
/// kFailedPrecondition.  (A mine snapshot is checked by
/// CheckLedgerIdentity.)
util::Status ValidateSweepCheckpoint(const SweepCheckpoint& ckpt,
                                     const matrix::MatrixStore& data,
                                     const std::vector<core::MinerOptions>&
                                         points);

/// Background snapshot writer: one dedicated thread, latest-wins queue
/// (a submitted snapshot replaces an unwritten predecessor -- the newest
/// state is the only one worth crash-protecting), generations assigned
/// monotonically at submit so buffer files alternate.  `synchronous` makes
/// Submit() write inline (tests and final snapshots).
class CheckpointWriter {
 public:
  /// `next_generation` seeds the counter (resume passes loaded generation
  /// + 1 so new snapshots supersede the old process's).
  CheckpointWriter(std::string base_path, uint64_t next_generation,
                   bool synchronous);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Queues `ckpt` for the writer thread (inline write when synchronous).
  /// Write failures are sticky: see last_error().
  void Submit(Checkpoint ckpt);

  /// Discards any queued snapshot (ours is newer) and writes `ckpt`
  /// synchronously, returning the write's own status.
  util::Status WriteNow(Checkpoint ckpt);

  /// First write failure, if any (OK otherwise).  Durability errors must
  /// not kill a healthy mine; callers surface this as a warning.
  util::Status last_error() const;

  /// Counts a resume on behalf of the run this writer serves.
  void NoteResume();

  CheckpointStats stats() const;

 private:
  util::Status WriteLocked(Checkpoint ckpt);  // caller holds io_mutex_
  void ThreadBody();

  const std::string base_path_;
  const bool synchronous_;
  mutable std::mutex mutex_;            // queue + counters
  std::mutex io_mutex_;                 // serializes actual file writes
  std::condition_variable cv_;
  std::optional<Checkpoint> pending_;
  uint64_t next_generation_;
  bool stop_ = false;
  util::Status error_;
  CheckpointStats stats_;
  std::thread thread_;
};

/// Durable-run knobs shared by both drivers.
struct CheckpointConfig {
  /// Snapshot base path (buffers PATH.a / PATH.b).  Empty disables
  /// snapshot writing (a resume-only run still replays without writing).
  std::string path;
  /// Target wall-clock interval between snapshots; the mine driver adapts
  /// its chunk node budget to hit it.
  int every_ms = 1000;
  /// Node budget of the first chunk, before any throughput estimate exists.
  int64_t initial_chunk_nodes = 4096;
  /// Generation the run's first snapshot gets.  A resume passes the loaded
  /// snapshot's generation + 1 so new snapshots supersede the old
  /// process's in LoadCheckpoint's newest-valid-buffer selection.
  uint64_t next_generation = 1;
  /// Write every snapshot inline instead of on the writer thread.
  bool synchronous = false;
};

/// Result of a durable mine: exactly what RegClusterMiner::Mine() +
/// stats()/outcome() would have produced uninterrupted, plus the durability
/// counters and the final snapshot status.
struct DurableMineResult {
  std::vector<core::RegCluster> clusters;
  core::MinerStats stats;
  core::MineOutcome outcome;
  CheckpointStats checkpoint;
  /// Non-OK when a snapshot write failed (the mine itself still succeeded).
  util::Status checkpoint_status;
};

/// Runs a mine in resumable chunks, snapshotting progress to
/// `config.path`.  `resume` (may be null) is a previously loaded snapshot:
/// its ledger is checked against (data, options) and the run continues
/// by mining root_set = [next_root, C) (options.root_set is rejected: the
/// ledger covers the roots in order).  The clusters and every deterministic
/// MinerStats counter are byte-identical to an uninterrupted Mine() under
/// `options` at any kill/resume pattern and any thread count.
util::StatusOr<DurableMineResult> RunCheckpointedMine(
    const matrix::MatrixStore& data, const core::MinerOptions& options,
    const CheckpointConfig& config, const MineCheckpoint* resume);

/// Result of a durable sweep.
struct DurableSweepResult {
  core::SweepReport report;
  CheckpointStats checkpoint;
  util::Status checkpoint_status;
};

/// Runs a sweep gamma-group by gamma-group (one SweepEngine::Run per
/// maximal consecutive same-gamma group, so model sharing is preserved
/// where the grid makes it possible), snapshotting after each group.
/// Sweep-level node/cluster budgets are composed across groups from each
/// group's deterministic totals, so truncation lands on the same point
/// boundary as an uninterrupted run.
util::StatusOr<DurableSweepResult> RunCheckpointedSweep(
    const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points,
    const core::SweepOptions& sweep_options, const CheckpointConfig& config,
    const SweepCheckpoint* resume);

/// Zeroes the scheduling- and wall-clock-dependent fields of a mine run
/// record (nodes_visited, *_seconds, peak_scratch_bytes, cache telemetry)
/// so two byte-compared reports differ only if the *mined result* differs.
/// Backs the CLI's --deterministic-output flag and the crash harness.
void ZeroVolatileMineFields(core::MinerStats* stats,
                            core::MineOutcome* outcome);

/// Sweep counterpart: report wall_seconds plus every run's volatile fields.
void ZeroVolatileSweepFields(core::SweepReport* report);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_CHECKPOINT_H_
