// Request bodies of the mining service: the one JSON shape both transports
// carry (HTTP POST bodies and length-prefixed binary frames), decoded into
// core::MinerOptions.
//
// The schema is flat and strict.  Recognized fields:
//
//   "matrix"          string, required -- matrix path on the server
//   "deterministic_output"  bool
//   "spec"            string, sweep only -- io::ParseSweepSpec grammar
//
// plus every row of the options table (core/options.h) that has a JSON
// key, set and range-checked through the row.  Unknown fields are
// InvalidArgument, not ignored: a typo'd budget field silently dropped
// would mine without the budget the client asked for.  Execution knobs
// (threads, caches, checkpoints) are the *server's* configuration and have
// no JSON key.

#ifndef REGCLUSTER_SERVER_REQUEST_H_
#define REGCLUSTER_SERVER_REQUEST_H_

#include <string>
#include <vector>

#include "core/miner.h"
#include "server/json_reader.h"
#include "util/status.h"

namespace regcluster {
namespace server {

struct MineRequest {
  std::string matrix_path;
  core::MinerOptions options;
  /// Sweep grammar for /sweep; empty for /mine.
  std::string sweep_spec;
  /// Zero volatile (timing / scheduling) report fields so responses are
  /// byte-comparable, exactly like the CLI's --deterministic-output.
  bool deterministic_output = false;
};

/// Decodes a /mine body.  `defaults` seeds every unset option field.
util::StatusOr<MineRequest> ParseMineRequest(const JsonValue& body,
                                             const core::MinerOptions& defaults);

/// Decodes a /sweep body: the mine schema plus a required "spec"; the
/// option fields form the sweep's base point.
util::StatusOr<MineRequest> ParseSweepRequest(
    const JsonValue& body, const core::MinerOptions& defaults);

/// An /append body: new conditions for a binary matrix on the server.
///
///   "matrix"   string, required -- binary matrix path on the server
///   "names"    array of strings, required -- one label per new condition
///   "columns"  array of number arrays, required -- columns[k][g] is new
///              condition k's value for gene g; all columns equal length
///
/// Same strictness as the mine schema: unknown fields, ragged columns and
/// a names/columns count mismatch are InvalidArgument.  (Whether the
/// column length matches the matrix's gene count is checked against the
/// file by the append itself.)
struct AppendRequest {
  std::string matrix_path;
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
};

util::StatusOr<AppendRequest> ParseAppendRequest(const JsonValue& body);

}  // namespace server
}  // namespace regcluster

#endif  // REGCLUSTER_SERVER_REQUEST_H_
