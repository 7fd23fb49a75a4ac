// JSON export of mined cluster sets -- for notebooks, web viewers and any
// downstream tool that does not want to parse the line format.
//
// Output schema (stable):
//   {
//     "outcome": {                     // only when a MineOutcome is supplied
//       "status": "complete"|"truncated",
//       "stop_reason": "none"|"cancelled"|"deadline"|"memory_budget"|
//                      "node_budget"|"cluster_budget",
//       "nodes_visited": N, "roots_completed": R, "roots_total": T,
//       "wall_seconds": S, "peak_scratch_bytes": B,
//       "resume_next_root": -1|r     // r = roots_completed if truncated
//     },
//     "stats": {                       // only when MinerStats is supplied
//       "nodes_expanded": N, "extensions_tested": N,
//       "pruned_min_genes": N, "pruned_p_majority": N,
//       "pruned_duplicate": N, "pruned_coherence": N,
//       "genes_dropped_min_conds": N, "clusters_emitted": N,
//       "index_word_ops": N, "coherence_divide_calls": N,
//       "coherence_scores": N, "dedup_probes": N,
//       "rwave_build_seconds": S, "index_build_seconds": S,
//       "mine_seconds": S
//     },
//     "num_clusters": N,
//     "clusters": [
//       {
//         "chain": [ids...],
//         "chain_names": ["..."],      // only when a matrix is supplied
//         "p_genes": [ids...], "p_gene_names": [...],
//         "n_genes": [ids...], "n_gene_names": [...]
//       }, ...
//     ]
//   }
//
// Writing only -- the machine line format (cluster_io.h) is the round-trip
// archive format.

#ifndef REGCLUSTER_IO_JSON_EXPORT_H_
#define REGCLUSTER_IO_JSON_EXPORT_H_

#include <iosfwd>
#include <vector>

#include "core/bicluster.h"
#include "core/miner.h"
#include "matrix/store.h"
#include "util/status.h"

namespace regcluster {
namespace io {

/// Writes the JSON document.  `data` (optional) supplies names; ids must be
/// valid for it when given.
util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               std::ostream& out);

/// Same, with a leading "outcome" block describing the partial-result
/// contract of the Mine() call that produced `clusters` (pass
/// miner.outcome()); `outcome == nullptr` writes the plain document.
util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               const core::MineOutcome* outcome,
                               std::ostream& out);

/// Same, plus a "stats" block with the deterministic search-effort counters
/// of the run (pass miner.stats()); `stats == nullptr` omits the block.
/// The counters are written even when they are all zero
/// (collect_stats=false): a reader can rely on the keys being present.
util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               const core::MineOutcome* outcome,
                               const core::MinerStats* stats,
                               std::ostream& out);

/// Escapes a string for inclusion in a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace io
}  // namespace regcluster

#endif  // REGCLUSTER_IO_JSON_EXPORT_H_
