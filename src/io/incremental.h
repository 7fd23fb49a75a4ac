// Incremental time-course mining: condition-append delta updates.
//
// Expression time courses grow condition by condition (ROADMAP item 4), and
// a full reload + RWave rebuild + re-mine after every new array throws away
// everything the previous run computed.  This module makes the append a
// delta: the gamma model updates through SharedGammaModel::UpdateAppend
// (genes whose absolute threshold is unchanged merge just the new columns
// into their sorted order), and the search re-runs only the *dirty roots* --
// level-1 conditions whose subtree can possibly involve an appended
// condition -- splicing every other root's (stats, clusters) slice from the
// previous run's io::RootLedger (MinerOptions::root_set +
// capture_root_results).
//
// Dirty-set rule (proof sketch in DESIGN.md): regulation reachability is
// transitively closed in one step per gene -- FirstSuccessorPos is
// non-decreasing in position, so every condition reachable from root r
// through an upward chain of gene g is a *direct* regulation successor of r
// in g's model (mirror for downward chains).  Hence root r's subtree can
// touch a new condition iff some gene has a new condition directly in
// UpCandidates(g, pos_g(r)) or DownCandidates(g, pos_g(r)), evaluated on
// the post-append index.  Appended conditions are always mined (they are
// new roots).  Two append shapes invalidate every root at once:
//   * a gene's absolute threshold moved (the append widened its range under
//     kRangeFraction, or shifted a statistic under the other policies) --
//     regulation among the *old* conditions then changes too;
//   * the bitmap word count grew (WordsForBits) -- the per-root
//     index_word_ops counters scale with the word stride, so old slices
//     would no longer sum to a from-scratch run's counters.
//
// Contract: after any append sequence, MineIncremental's clusters AND every
// deterministic MinerStats counter are byte-identical to a from-scratch
// RegClusterMiner::Mine() over the grown matrix, at any thread count
// (tests/core/incremental_append_test.cc).  The state is a complete root
// ledger and is durable: a 16-byte RGCXINC1 preamble followed by the
// ledger's records (io/root_ledger.h), so the CLI chains appends across
// processes (`mine --append=cols.txt --prev-outcome=STATE`).  A checkpointed
// mine that completes holds the same ledger, byte for byte.

#ifndef REGCLUSTER_IO_INCREMENTAL_H_
#define REGCLUSTER_IO_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/miner.h"
#include "io/root_ledger.h"
#include "matrix/store.h"
#include "util/status.h"

namespace regcluster {
namespace io {

/// Everything a later append needs from the previous mine: the complete
/// root ledger of the matrix and options it answered.
using IncrementalState = RootLedger;

/// What an incremental (or initial) mine produced.
struct IncrementalMineResult {
  /// The final output, byte-identical to a from-scratch mine under the same
  /// options (dominance pass applied when requested).
  std::vector<core::RegCluster> clusters;
  /// Spliced deterministic counters -- byte-identical to a from-scratch
  /// mine's stats() except the wall-clock fields, which time this call.
  core::MinerStats stats;
  /// State to feed the next MineIncremental call.
  IncrementalState state;
  /// The gamma model at the mined width; pass it back as `prev_model` so
  /// the next in-process append takes the UpdateAppend delta path.
  std::shared_ptr<const core::SharedGammaModel> model;
  int roots_remined = 0;  ///< dirty roots searched this call
  int roots_spliced = 0;  ///< clean roots served from the previous state
};

/// Seeds an incremental chain: one full mine of `data` under `options`,
/// recording every root's slice.  The clusters and stats are byte-identical
/// to a plain RegClusterMiner::Mine() under the same options.  Rejects
/// (InvalidArgument) options the incremental contract cannot splice:
/// budgets, deadline, memory limit, cancel token, root_set,
/// capture_root_results, shared_model, and out-of-core model_cache_bytes.
util::StatusOr<IncrementalMineResult> MineInitial(
    const matrix::MatrixStore& data, const core::MinerOptions& options);

/// Re-mines only the dirty roots of `new_data` -- the matrix after appending
/// conditions at the end, `first_new` = the previous condition count -- and
/// splices every clean root from `prev`.  `prev_model` (may be null) is the
/// gamma model of the previous step at width `first_new`; when compatible it
/// delta-updates via SharedGammaModel::UpdateAppend, otherwise the model is
/// rebuilt at the new width (same bytes either way).  Checks `prev` against
/// the options and the first `first_new` columns of `new_data`
/// (CheckLedgerIdentity) and that it covers every root; each mismatch is a
/// distinct FailedPrecondition.
util::StatusOr<IncrementalMineResult> MineIncremental(
    const matrix::MatrixStore& new_data, int first_new,
    const core::MinerOptions& options, const IncrementalState& prev,
    std::shared_ptr<const core::SharedGammaModel> prev_model = nullptr);

/// Serializes `state` to the RGCXINC1 wire format: a 16-byte preamble
/// (magic, version, endian tag) followed by the ledger's records.
std::string EncodeIncrementalState(const IncrementalState& state);

/// Inverse of EncodeIncrementalState.  Every malformed shape is a distinct
/// kCorruption (short preamble, bad magic, version/endianness mismatch,
/// torn records, out-of-order roots, count mismatch, a ledger that does not
/// cover every root, trailing bytes).
util::StatusOr<IncrementalState> DecodeIncrementalState(
    std::string_view bytes);

/// Encodes and atomically writes `state` to `path`
/// (util::AtomicWriteFile: complete old or complete new, never torn).
util::Status WriteIncrementalStateFile(const std::string& path,
                                       const IncrementalState& state);

/// Reads and decodes the state file at `path`.
util::StatusOr<IncrementalState> LoadIncrementalState(const std::string& path);

/// The dirty-root set of an append, for tests and diagnostics: every root
/// in [0, first_new) with an appended condition directly in some gene's
/// successor/predecessor candidates (evaluated on the post-append `index`),
/// plus every appended root.  Sorted ascending.  The all-dirty fallbacks
/// (threshold moved, word count grew) are applied by MineIncremental, not
/// here.
std::vector<int> ComputeDirtyRoots(const core::RWaveBitmapIndex& index,
                                   int first_new);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_INCREMENTAL_H_
