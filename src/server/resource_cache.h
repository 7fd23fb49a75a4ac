// Byte-budgeted two-level LRU over the daemon's reusable heavyweights:
// loaded matrices and baked SharedGammaModels.
//
// Level 1 is keyed by the matrix path and holds the storage handle (a
// resident ExpressionMatrix for text inputs, an mmap-backed MappedMatrix
// for the binary format) together with its content hash -- the same
// io::HashMatrixContent fingerprint the root ledger binds snapshots
// to, and identical across the resident and mapped paths.  Level 2 is
// keyed by (content hash, gamma policy, gamma): everything a
// SharedGammaModel depends on.  Keying models by *content* rather than
// path means a matrix reachable under two paths (or re-converted to the
// binary format) still shares one model.
//
// Models are reusable across MinC because the bitmap index clamps chain
// requirements into its build ceiling: an entry built with
// max_chain_need = K answers every request with MinC <= K bit-identically
// (see SharedGammaModel).  A request needing a larger ceiling replaces the
// entry -- counted as a miss plus an eviction -- exactly like the sweep
// engine's largest-MinC build, amortized across requests instead of
// across sweep points.
//
// Both levels share one byte budget and one global LRU order.  Handles
// are shared_ptr: eviction merely drops the cache's reference, so an
// in-flight mine pinning a model keeps it alive after its entry is gone
// (the server_concurrency_test eviction-under-load case).  All operations
// run under a single mutex; loads and model builds happen *inside* the
// critical section, which serializes concurrent misses on the same key
// into one build and makes the hit/miss counters a pure function of the
// request order.

#ifndef REGCLUSTER_SERVER_RESOURCE_CACHE_H_
#define REGCLUSTER_SERVER_RESOURCE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/miner.h"
#include "core/threshold.h"
#include "matrix/store.h"
#include "util/hash128.h"
#include "util/status.h"

namespace regcluster {
namespace server {

class ResourceCache {
 public:
  struct Options {
    /// Combined budget over matrix handles and models.  Eviction runs from
    /// the global LRU tail until resident bytes fit; the most recently
    /// touched entry always survives (one-entry floor, as in
    /// core::ModelCache), so a single oversized matrix still mines.
    int64_t byte_budget = int64_t{256} << 20;
    /// Threads for model builds (0 = hardware concurrency).
    int build_threads = 1;
  };

  /// Deterministic given the request order (see file comment).
  struct Stats {
    int64_t matrix_hits = 0;
    int64_t matrix_misses = 0;
    int64_t model_hits = 0;
    int64_t model_misses = 0;
    int64_t evictions = 0;
    /// Entries dropped by InvalidateAppend (never double-counted as
    /// evictions).
    int64_t invalidations = 0;
    int64_t resident_bytes = 0;
  };

  /// A pinned level-1 entry: the storage handle plus its content hash and
  /// the cache generation it was loaded under (stale once the path is
  /// invalidated; see InvalidateAppend).
  struct MatrixHandle {
    std::shared_ptr<const matrix::MatrixStore> store;
    util::Hash128 content_hash{0, 0};
    int64_t bytes = 0;
    uint64_t generation = 0;
  };

  explicit ResourceCache(const Options& options) : options_(options) {}

  ResourceCache(const ResourceCache&) = delete;
  ResourceCache& operator=(const ResourceCache&) = delete;

  /// Loads (or reuses) the matrix at `path`.  The binary magic is sniffed:
  /// binary matrices map, text matrices load resident.  Missing values are
  /// FailedPrecondition -- the service has no impute step; callers prepare
  /// inputs with `regcluster convert`.  Load failures are not cached.
  /// `hit` (optional) reports whether an existing entry served the request.
  util::StatusOr<std::shared_ptr<const MatrixHandle>> GetMatrix(
      const std::string& path, bool* hit = nullptr);

  /// Returns a model for `spec` over the matrix behind `handle`, built with
  /// an index ceiling of at least `max_chain_need`.  `hit` (optional)
  /// reports whether an existing entry served the request.
  util::StatusOr<std::shared_ptr<const core::SharedGammaModel>> GetModel(
      const std::shared_ptr<const MatrixHandle>& handle,
      const core::GammaSpec& spec, int max_chain_need, bool* hit = nullptr);

  /// Drops the level-1 entry for `path` and -- through its content hash --
  /// every level-2 model derived from that matrix, leaving all other
  /// entries (other paths, other matrices' models) untouched.  Bumps the
  /// cache generation so handles pinned before the call are identifiable
  /// as stale.  Called by the daemon's append endpoint after the file on
  /// disk was widened; the next request on the path reloads and rebuilds.
  /// Returns the number of entries dropped (0 when the path was not
  /// cached -- still a generation bump, since the file changed).
  int InvalidateAppend(const std::string& path);

  /// Monotone generation tag, bumped by InvalidateAppend().
  uint64_t generation() const;

  Stats stats() const;

 private:
  struct ModelKey {
    util::Hash128 matrix_hash{0, 0};
    core::GammaSpec spec;
    bool operator==(const ModelKey& o) const;
  };
  struct ModelKeyHasher {
    size_t operator()(const ModelKey& k) const;
  };

  /// One slot in the global LRU: exactly one of the two payloads is set.
  struct Entry {
    std::string path;  // level-1 key ("" for models)
    ModelKey model_key;
    bool is_model = false;
    int64_t bytes = 0;
    std::shared_ptr<const MatrixHandle> matrix;
    std::shared_ptr<const core::SharedGammaModel> model;
  };

  using LruList = std::list<Entry>;

  void Touch(LruList::iterator it);
  void Insert(Entry entry);
  void EvictToBudget();

  const Options options_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> by_path_;
  std::unordered_map<ModelKey, LruList::iterator, ModelKeyHasher> by_model_;
  Stats stats_;
  uint64_t generation_ = 0;  // bumped by InvalidateAppend
};

}  // namespace server
}  // namespace regcluster

#endif  // REGCLUSTER_SERVER_RESOURCE_CACHE_H_
