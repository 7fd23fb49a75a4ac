#include "core/miner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/coherence.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/simd/radix_sort.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace regcluster {
namespace core {
namespace {

/// True iff the chain is lexicographically smaller than its reversal
/// (condition ids).  Used for the tie-break of the representative rule.
bool LexSmallerThanReversed(const std::vector<int>& chain) {
  const size_t n = chain.size();
  for (size_t i = 0; i < n; ++i) {
    const int fwd = chain[i];
    const int rev = chain[n - 1 - i];
    if (fwd != rev) return fwd < rev;
  }
  return false;  // palindromic (only possible for length 1)
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Approximate heap footprint of a vector (capacity, not size: the arenas
/// hold their high-water mark).
template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

}  // namespace

void AccumulateStats(const MinerStats& from, MinerStats* to) {
  to->nodes_expanded += from.nodes_expanded;
  to->extensions_tested += from.extensions_tested;
  to->pruned_min_genes += from.pruned_min_genes;
  to->pruned_p_majority += from.pruned_p_majority;
  to->pruned_duplicate += from.pruned_duplicate;
  to->pruned_coherence += from.pruned_coherence;
  to->genes_dropped_min_conds += from.genes_dropped_min_conds;
  to->clusters_emitted += from.clusters_emitted;
  to->index_word_ops += from.index_word_ops;
  to->coherence_divide_calls += from.coherence_divide_calls;
  to->coherence_scores += from.coherence_scores;
  to->dedup_probes += from.dedup_probes;
  to->filter_ns += from.filter_ns;
  to->score_ns += from.score_ns;
  to->sort_ns += from.sort_ns;
  to->emit_ns += from.emit_ns;
}

/// One DFS node's reusable state.  The member columns are struct-of-arrays
/// (MemberCols), and the per-node caches below are parallel to them:
///
///   *_comb   per member, the W-word bitmap of conditions the member can
///            extend to (successor/predecessor row AND MinC-eligibility
///            row);
///   *_trans  the transpose of *_comb restricted to the node's candidate
///            set: per candidate condition, a bitmap over *member indices*.
///            The per-candidate filter then walks only the set bits
///            (surviving members) instead of probing every member;
///   *_off    per member, the gene's flat row offset (gene * C).  One int64
///            offset serves both the expression matrix and the index's
///            position table, which share the gene-major stride -- and it is
///            what the SIMD gather kernels consume;
///   *_base   per member, the row value at the chain head ckm, so a
///            candidate's coherence numerator is row[cand] - base.
///
/// The scored columns (sc_*) hold one filtered extension: entries
/// [0, sc_split) are p-members, the rest n-members; both halves inherit the
/// member order and are therefore gene-ascending.  `order` index-sorts the
/// score column without moving the rows.
struct RegClusterMiner::NodeFrame {
  MemberCols p, n;

  std::vector<uint64_t> p_comb, n_comb;
  std::vector<uint64_t> p_trans, n_trans;
  int p_words = 0;  ///< words per p_trans row (= WordsForBits(p.size()))
  int n_words = 0;
  std::vector<int64_t> p_off, n_off;
  std::vector<double> p_base, n_base;

  std::vector<uint64_t> cand_words;  ///< the node's candidate bitmap
  std::vector<int> cands;            ///< its set bits, ascending

  std::vector<double> sc_h, sc_denom;
  std::vector<double> sc_hs;  ///< sorted score column (sort kernel output)
  std::vector<int> sc_gene;
  std::vector<int> filt;  ///< surviving member indices of one filter half
  std::vector<int> order;
  std::vector<int> win_p, win_n;  ///< window index buffers (child build)

  void ClearScored() {
    sc_h.clear();
    sc_denom.clear();
    sc_gene.clear();
  }

  int64_t ApproxBytes() const {
    return VecBytes(p.gene) + VecBytes(p.head_pos) + VecBytes(p.denom) +
           VecBytes(n.gene) + VecBytes(n.head_pos) + VecBytes(n.denom) +
           VecBytes(p_comb) + VecBytes(n_comb) + VecBytes(p_trans) +
           VecBytes(n_trans) + VecBytes(p_off) + VecBytes(n_off) +
           VecBytes(p_base) + VecBytes(n_base) + VecBytes(cand_words) +
           VecBytes(cands) + VecBytes(sc_h) + VecBytes(sc_hs) +
           VecBytes(sc_denom) +
           VecBytes(sc_gene) + VecBytes(filt) +
           VecBytes(order) + VecBytes(win_p) + VecBytes(win_n);
  }
};

/// Per-worker scratch arena.  Every container is reused across the whole
/// search, so after a short warm-up (first visit of each DFS depth) the hot
/// loop performs zero heap allocations.  Frames live in a deque: references
/// into it stay valid while deeper frames are appended during recursion.
struct RegClusterMiner::MinerScratch {
  std::vector<int> chain;       ///< the DFS chain stack
  std::deque<NodeFrame> frames; ///< frames[d] holds the node of chain length d+2
  NodeFrame root_frame;         ///< the level-1 node (SeedRoot only)
  std::vector<uint64_t> gene_epoch;  ///< gene id -> last-marked epoch
  uint64_t epoch = 0;
  util::simd::SortScratch sort_scratch;  ///< radix-sort key/index buffers

  void Init(int num_conds, int num_genes) {
    chain.reserve(static_cast<size_t>(num_conds) + 1);
    gene_epoch.assign(static_cast<size_t>(num_genes), 0);
    epoch = 0;
  }

  NodeFrame& frame(int depth) {
    while (frames.size() <= static_cast<size_t>(depth)) frames.emplace_back();
    return frames[static_cast<size_t>(depth)];
  }

  /// Approximate live bytes of this arena -- the quantity the soft memory
  /// limit bounds.  Capacity-based, so it tracks the high-water mark.
  int64_t ApproxBytes() const {
    int64_t total = VecBytes(chain) + VecBytes(gene_epoch) +
                    root_frame.ApproxBytes() + sort_scratch.ApproxBytes();
    for (const NodeFrame& f : frames) {
      total += f.ApproxBytes() + static_cast<int64_t>(sizeof(NodeFrame));
    }
    return total;
  }
};

/// Per-task budget bookkeeping.  One instance lives on the stack of each
/// task body (or of the serial finalize pass) and is reached through
/// SearchContext::ctl.  It separates the two costs of budget enforcement:
///
///   * every DFS node pays OnNode() -- two local increments, two local
///     compares and (when a BudgetGuard exists) one relaxed atomic load;
///   * every `interval` nodes the task additionally flushes its local node
///     count to the guard and runs BudgetGuard::Poll() (token poll, deadline
///     read, memory report, global counter compare).
///
/// The local node/cluster quotas implement the *deterministic* cut of the
/// serial finalize pass: a repair task stops as soon as its root alone
/// exceeds what is left of the count budget.  Parallel phase-A tasks run
/// with unlimited quotas and react only to the shared guard; a task that
/// observes a trip abandons its slot (never marks itself complete) and drops
/// the pool's queued tasks so the batch drains quickly.
struct RegClusterMiner::TaskControl {
  util::BudgetGuard* guard = nullptr;  ///< shared stop sources; may be null
  util::TaskPool* pool = nullptr;      ///< drained on first observed trip
  MinerScratch* scratch = nullptr;     ///< for the memory reports
  int slot = 0;                        ///< this task's BudgetGuard byte slot
  int interval = 32;
  int countdown = 32;
  /// Serial-repair mode: exhausted *count* quotas on the shared guard are
  /// stale phase-A state and must not gate the repair; only hard stops do.
  bool hard_only = false;
  int64_t node_quota = std::numeric_limits<int64_t>::max();
  int64_t cluster_quota = std::numeric_limits<int64_t>::max();
  int64_t nodes = 0;
  int64_t clusters = 0;
  int64_t unflushed_nodes = 0;
  int64_t output_bytes = 0;
  bool stopped = false;
  util::StopReason stop_reason = util::StopReason::kNone;

  void Stop(util::StopReason reason) {
    stopped = true;
    stop_reason = reason;
    if (pool != nullptr) pool->CancelPending();
  }

  /// The cheap per-check-site probe: local flag plus one relaxed load.
  bool CheckAbort() {
    if (stopped) return true;
    if (guard != nullptr) {
      const util::StopReason r =
          hard_only ? guard->hard_reason() : guard->reason();
      if (r != util::StopReason::kNone) {
        Stop(r);
        return true;
      }
    }
    return false;
  }

  /// Accounts one DFS node.  Returns true when the node must not be
  /// expanded (the task is abandoning its work unit).
  bool OnNode() {
    if (stopped) return true;
    ++nodes;
    if (nodes > node_quota) {
      Stop(util::StopReason::kNodeBudget);
      return true;
    }
    if (guard == nullptr) return false;
    ++unflushed_nodes;
    if (--countdown <= 0) {
      countdown = interval;
      guard->AddNodes(unflushed_nodes);
      unflushed_nodes = 0;
      guard->Poll(slot, (scratch != nullptr ? scratch->ApproxBytes() : 0) +
                            output_bytes);
    }
    return CheckAbort();
  }

  /// Accounts one emitted cluster of ~`bytes` bytes.  Returns true when the
  /// emission exhausted the local cluster quota.
  bool OnEmit(int64_t bytes) {
    output_bytes += bytes;
    ++clusters;
    if (clusters > cluster_quota) {
      Stop(util::StopReason::kClusterBudget);
      return true;
    }
    if (guard != nullptr) guard->AddClusters(1);
    return stopped;
  }

  /// Flushes the residual local node count to the guard (task epilogue).
  void Finish() {
    if (guard != nullptr && unflushed_nodes > 0) {
      guard->AddNodes(unflushed_nodes);
      unflushed_nodes = 0;
    }
  }
};

void RegClusterMiner::RootWork::Reset() {
  ctx = SearchContext();
  seeds.clear();
  subtree_ctx.clear();
  seeded.store(false, std::memory_order_relaxed);
  subtrees_done.store(0, std::memory_order_relaxed);
}

/// Execution state of one staged run, created by Prepare() and consumed by
/// Finalize().  Living on the miner (not on a Mine() stack frame) is what
/// lets a batch driver keep many runs in flight on one pool between the two
/// calls.
struct RegClusterMiner::RunState {
  util::WallTimer total_timer;  ///< Prepare() entry -> Finalize() exit
  util::WallTimer mine_timer;   ///< model ready -> Finalize() exit
  std::vector<RootWork> work;   ///< one slot per level-1 condition
  std::vector<MinerScratch> scratches;  ///< phase-A per-worker arenas
  /// The roots this run searches, in canonical order: root_set, or every
  /// condition.  Both phases walk this list.
  std::vector<int> roots;
  int threads = 1;
  int fin_slot = 0;  ///< guard byte-report slot of the finalize pass

  /// Phase-A tasks of *this run* still queued or running on a shared pool.
  /// Incremented before each Submit, decremented as the last action of the
  /// task body, so a transient zero cannot be observed while a root still
  /// has subtrees to submit (the root's own count covers the submission
  /// window).  Only the shared-pool path maintains it: an exclusive pool
  /// may drop queued tasks via CancelPending, which would strand the count.
  std::atomic<int64_t> outstanding{0};
  std::mutex wait_mu;
  std::condition_variable wait_cv;

  /// Marks one phase-A task finished and wakes WaitParallelWork().
  void TaskDone() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(wait_mu);
      wait_cv.notify_all();
    }
  }
};

namespace {

/// Gene-striped index bake shared by both model builders: each stripe task
/// fetches its genes' models via `model_of` and writes their (disjoint)
/// index slices.  Byte-identical at any thread count because a gene's slice
/// depends only on its own model.
template <typename ModelOf>
void BakeIndexStriped(RWaveBitmapIndex* index, int num_genes, int num_conds,
                      int max_chain_need, int num_threads,
                      const ModelOf& model_of) {
  index->BeginBuild(num_genes, num_conds, max_chain_need);
  if (num_threads == 1 || num_genes == 0) {
    RWaveBitmapIndex::BuildScratch scratch;
    for (int g = 0; g < num_genes; ++g) {
      index->BuildGene(g, *model_of(g), &scratch);
    }
    return;
  }
  util::TaskPool pool(num_threads);
  const int workers = pool.num_workers();
  int stripe = (num_genes + workers * 4 - 1) / (workers * 4);
  stripe = std::max(stripe, 64);
  std::vector<RWaveBitmapIndex::BuildScratch> scratches(
      static_cast<size_t>(workers));
  for (int begin = 0; begin < num_genes; begin += stripe) {
    const int end = std::min(begin + stripe, num_genes);
    pool.Submit([&, begin, end](int worker) {
      auto& scratch = scratches[static_cast<size_t>(worker)];
      for (int g = begin; g < end; ++g) {
        index->BuildGene(g, *model_of(g), &scratch);
      }
    });
  }
  pool.Wait();
}

}  // namespace

std::shared_ptr<const SharedGammaModel> SharedGammaModel::Build(
    const matrix::MatrixStore& data, const GammaSpec& spec,
    int max_chain_need, int num_threads) {
  auto model = std::make_shared<SharedGammaModel>();
  model->spec = spec;
  model->max_chain_need = max_chain_need;
  util::WallTimer timer;
  model->rwaves = BuildRWaveModels(
      data, [&data, &spec](int g) { return AbsoluteGamma(data, g, spec); },
      num_threads);
  model->rwave_build_seconds = timer.ElapsedSeconds();
  timer.Reset();
  BakeIndexStriped(&model->index, data.num_genes(), data.num_conditions(),
                   max_chain_need, num_threads,
                   [&model](int g) { return &model->rwaves[static_cast<size_t>(g)]; });
  model->index_build_seconds = timer.ElapsedSeconds();
  return model;
}

std::shared_ptr<const SharedGammaModel> SharedGammaModel::BuildOutOfCore(
    const matrix::MatrixStore& data, const GammaSpec& spec,
    int max_chain_need, int64_t cache_bytes, int cache_shards,
    int num_threads) {
  auto model = std::make_shared<SharedGammaModel>();
  model->spec = spec;
  model->max_chain_need = max_chain_need;
  ModelCache::Options copts;
  copts.byte_budget = cache_bytes;
  copts.num_shards = cache_shards;
  const int num_conds = data.num_conditions();
  model->cache = std::make_shared<ModelCache>(
      data.num_genes(),
      [&data, spec, num_conds](int g) {
        thread_local util::simd::SortScratch scratch;
        return RWaveModel::Build(data.row_data(g), num_conds,
                                 AbsoluteGamma(data, g, spec), &scratch);
      },
      copts);
  // The index bake *is* the model-build pass here: every gene streams
  // through the cache exactly where its index slice needs it, so no
  // separate rwave phase exists and its time reports as 0.
  util::WallTimer timer;
  BakeIndexStriped(&model->index, data.num_genes(), num_conds, max_chain_need,
                   num_threads,
                   [&model](int g) { return model->cache->Get(g); });
  model->index_build_seconds = timer.ElapsedSeconds();
  return model;
}

std::shared_ptr<const SharedGammaModel> SharedGammaModel::UpdateAppend(
    const SharedGammaModel& prev, const matrix::MatrixStore& new_data,
    int first_new, int num_threads) {
  const int num_genes = new_data.num_genes();
  const int num_conds = new_data.num_conditions();
  assert(prev.index.num_conditions() == first_new);
  (void)first_new;
  if (prev.cache != nullptr ||
      static_cast<int>(prev.rwaves.size()) != num_genes) {
    // An out-of-core model keeps no resident per-gene models to delta-update;
    // rebuild from scratch (byte-identical by the builders' contracts).
    return Build(new_data, prev.spec, prev.max_chain_need, num_threads);
  }
  auto model = std::make_shared<SharedGammaModel>();
  model->spec = prev.spec;
  model->max_chain_need = prev.max_chain_need;
  model->rwaves.resize(static_cast<size_t>(num_genes));
  util::WallTimer timer;
  // Per gene: when the append leaves the absolute threshold bitwise
  // unchanged (e.g. the new values stay inside the row range under
  // kRangeFraction), the old sorted order is reusable and
  // RWaveModel::AppendConditions merges just the appended columns; a moved
  // threshold (or a policy whose statistic shifted) invalidates every
  // pointer, so those genes rebuild from scratch.  Either path is
  // byte-identical to a fresh Build at the new width.
  const auto update_range = [&](int begin, int end,
                                util::simd::SortScratch* scratch) {
    for (int g = begin; g < end; ++g) {
      const double gamma_abs = AbsoluteGamma(new_data, g, model->spec);
      const RWaveModel& old = prev.rwaves[static_cast<size_t>(g)];
      if (std::bit_cast<uint64_t>(gamma_abs) ==
          std::bit_cast<uint64_t>(old.gamma_abs())) {
        RWaveModel m = old;
        m.AppendConditions(new_data.row_data(g), num_conds);
        model->rwaves[static_cast<size_t>(g)] = std::move(m);
      } else {
        model->rwaves[static_cast<size_t>(g)] = RWaveModel::Build(
            new_data.row_data(g), num_conds, gamma_abs, scratch);
      }
    }
  };
  if (num_threads == 1 || num_genes == 0) {
    util::simd::SortScratch scratch;
    update_range(0, num_genes, &scratch);
  } else {
    // Same striping as BuildRWaveModels: slot-assigned writes keep the
    // result byte-identical at any thread count.
    util::TaskPool pool(num_threads);
    const int workers = pool.num_workers();
    int stripe = (num_genes + workers * 4 - 1) / (workers * 4);
    stripe = std::max(stripe, 64);
    std::vector<util::simd::SortScratch> scratches(
        static_cast<size_t>(workers));
    for (int begin = 0; begin < num_genes; begin += stripe) {
      const int end = std::min(begin + stripe, num_genes);
      pool.Submit([&, begin, end](int worker) {
        update_range(begin, end, &scratches[static_cast<size_t>(worker)]);
      });
    }
    pool.Wait();
  }
  model->rwave_build_seconds = timer.ElapsedSeconds();
  timer.Reset();
  // The bitmap tables are position-indexed with a word stride of
  // WordsForBits(num_conditions), so the index re-bakes at the new width
  // regardless of how many models took the delta path.
  BakeIndexStriped(
      &model->index, num_genes, num_conds, model->max_chain_need, num_threads,
      [&model](int g) { return &model->rwaves[static_cast<size_t>(g)]; });
  model->index_build_seconds = timer.ElapsedSeconds();
  return model;
}

size_t SharedGammaModel::MemoryBytes() const {
  // Index tables exactly; resident per-gene models by their table capacities
  // (the same figure the ModelCache charges per entry); plus whatever the
  // cache currently retains on the out-of-core path.
  size_t total = index.MemoryBytes();
  for (const RWaveModel& m : rwaves) {
    total += m.MemoryBytes();
  }
  if (cache != nullptr) {
    total += static_cast<size_t>(cache->resident_bytes());
  }
  return total;
}

RegClusterMiner::RegClusterMiner(const matrix::MatrixStore& data,
                                 MinerOptions options)
    : data_(data), options_(options) {}

RegClusterMiner::~RegClusterMiner() = default;

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Mine() {
  util::Status prep = Prepare();
  if (!prep.ok()) return prep;
  if (run_->threads > 1) {
    obs::PhaseSpan phase_a(&outcome_.phase_a_seconds);
    util::TaskPool pool(run_->threads);
    SubmitRoots(&pool, /*exclusive_pool=*/true);
    pool.Wait();
    outcome_.pool_steals = pool.total_steals();
    outcome_.pool_queue_high_water = pool.queue_depth_high_water();
  }
  return Finalize();
}

util::Status RegClusterMiner::Prepare() {
  if (util::Status s = ValidateMinerOptions(options_); !s.ok()) return s;
  if (data_.HasMissingValues()) {
    return util::Status::FailedPrecondition(
        "matrix contains missing values; impute first "
        "(matrix::ImputeRowMean)");
  }
  for (int g : options_.required_genes) {
    if (g < 0 || g >= data_.num_genes()) {
      return util::Status::OutOfRange("required gene outside the matrix");
    }
  }
  for (int c : options_.allowed_conditions) {
    if (c < 0 || c >= data_.num_conditions()) {
      return util::Status::OutOfRange("allowed condition outside the matrix");
    }
  }
  if (options_.budget_check_interval < 1) {
    return util::Status::InvalidArgument("budget_check_interval must be >= 1");
  }
  if (!options_.root_set.empty()) {
    if (options_.remove_dominated) {
      return util::Status::InvalidArgument(
          "root_set cannot be combined with remove_dominated: dominance is a "
          "global post-pass, so spliced root slices would not match a full "
          "run");
    }
    int prev_root = -1;
    for (int c : options_.root_set) {
      if (c < 0 || c >= data_.num_conditions()) {
        return util::Status::OutOfRange(
            "root_set condition outside the matrix");
      }
      if (c <= prev_root) {
        return util::Status::InvalidArgument(
            "root_set must be sorted strictly ascending");
      }
      prev_root = c;
    }
  }
  allowed_cond_.assign(static_cast<size_t>(data_.num_conditions()),
                       options_.allowed_conditions.empty() ? 1 : 0);
  for (int c : options_.allowed_conditions) {
    allowed_cond_[static_cast<size_t>(c)] = 1;
  }
  allowed_words_.assign(
      static_cast<size_t>(util::WordsForBits(data_.num_conditions())), 0);
  for (int c = 0; c < data_.num_conditions(); ++c) {
    if (allowed_cond_[static_cast<size_t>(c)]) {
      util::SetBit(allowed_words_.data(), c);
    }
  }
  required_gene_.assign(static_cast<size_t>(data_.num_genes()), 0);
  num_required_ = 0;
  for (int g : options_.required_genes) {
    if (!required_gene_[static_cast<size_t>(g)]) {
      required_gene_[static_cast<size_t>(g)] = 1;
      ++num_required_;
    }
  }

  stats_ = MinerStats();
  outcome_ = MineOutcome();
  root_results_.clear();
  // Resolve the kernel dispatch once per run: the hot loops then pay a plain
  // indirect call, and the outcome records which kernel set actually ran.
  ops_ = &util::simd::Ops();
  outcome_.simd_level = ops_->level;
  guard_.reset();
  run_.reset();
  index_ = nullptr;
  model_.reset();

  auto run = std::make_unique<RunState>();
  // Resolve the worker count before the model build so the build itself can
  // run striped on the same number of threads as the search.
  run->threads = options_.num_threads;
  if (run->threads == 0) {
    run->threads = static_cast<int>(std::thread::hardware_concurrency());
    if (run->threads < 1) run->threads = 1;
  }

  const GammaSpec spec{options_.gamma_policy, options_.gamma};
  if (options_.shared_model != nullptr) {
    // Adopt a pre-built model.  Reuse is only sound when the model answers
    // exactly the queries this run would bake itself: same matrix shape,
    // bitwise-equal gamma spec, and an eligibility ceiling covering MinC
    // (queries clamp into [0, max_chain_need], so a *larger* ceiling is
    // exact, a smaller one is not).
    const SharedGammaModel& m = *options_.shared_model;
    if (!SameGammaSpec(m.spec, spec)) {
      return util::Status::InvalidArgument(
          "shared_model was built under a different gamma spec");
    }
    if (m.index.num_genes() != data_.num_genes() ||
        m.index.num_conditions() != data_.num_conditions()) {
      return util::Status::FailedPrecondition(
          "shared_model dimensions do not match this matrix");
    }
    if (m.max_chain_need < options_.min_conditions) {
      return util::Status::InvalidArgument(
          "shared_model max_chain_need is below MinC; build the model with "
          "the largest MinC it will serve");
    }
    model_ = options_.shared_model;
  } else if (options_.model_cache_bytes >= 0) {
    model_ = SharedGammaModel::BuildOutOfCore(
        data_, spec, options_.min_conditions, options_.model_cache_bytes,
        options_.model_cache_shards, run->threads);
    stats_.index_builds = 1;
    stats_.index_build_seconds = model_->index_build_seconds;
  } else {
    model_ = SharedGammaModel::Build(data_, spec, options_.min_conditions,
                                     run->threads);
    stats_.index_builds = 1;
    stats_.rwave_build_seconds = model_->rwave_build_seconds;
    stats_.index_build_seconds = model_->index_build_seconds;
  }
  index_ = &model_->index;

  run->work = std::vector<RootWork>(
      static_cast<size_t>(data_.num_conditions()));
  run->roots = options_.root_set;
  if (run->roots.empty()) {
    run->roots.resize(static_cast<size_t>(data_.num_conditions()));
    std::iota(run->roots.begin(), run->roots.end(), 0);
  }
  run->mine_timer.Reset();
  run_ = std::move(run);
  return util::Status::OK();
}

void RegClusterMiner::EnsureGuard(int num_slots) {
  if (guard_ != nullptr) return;
  util::BudgetGuard::Limits limits;
  limits.max_nodes = options_.max_nodes;
  limits.max_clusters = options_.max_clusters;
  limits.deadline_ms = options_.deadline_ms;
  limits.soft_memory_limit_bytes = options_.soft_memory_limit_bytes;
  limits.token = options_.cancel_token;
  if (!limits.any()) return;
  // One byte-report slot per pool worker plus one for the finalize pass.
  guard_ = std::make_unique<util::BudgetGuard>(limits, num_slots);
  if (options_.model_cache_bytes >= 0 && options_.shared_model == nullptr) {
    // Out-of-core: the memory stop bounds what the process actually holds
    // live, so the mapped matrix + resident model/index/cache bytes enter
    // the summed total exactly once as a fixed base (never per slot).
    guard_->set_base_bytes(
        data_.mapped_bytes() +
        static_cast<int64_t>(model_->MemoryBytes()));
  }
  run_->fin_slot = num_slots - 1;
}

RegClusterMiner::TaskControl RegClusterMiner::MakeControl(
    MinerScratch* scratch, int slot, util::TaskPool* pool) {
  TaskControl ctl;
  ctl.guard = guard_.get();
  ctl.pool = pool;
  ctl.scratch = scratch;
  ctl.slot = slot;
  ctl.interval = options_.budget_check_interval;
  ctl.countdown = ctl.interval;
  return ctl;
}

void RegClusterMiner::SubmitParallelWork(util::TaskPool* pool) {
  SubmitRoots(pool, /*exclusive_pool=*/false);
}

// Phase A: optimistic mining.  Every root / subtree task runs under the
// shared guard with unlimited local quotas; on a trip, in-flight tasks
// abandon their slot atomically (they simply never mark themselves
// complete), and -- when the pool is exclusively this run's -- its queued
// tasks are dropped so the batch drains quickly.  On a shared pool the
// queued tasks may belong to other runs, so a tripped task only abandons
// its own work; the stale tasks of this run then observe the trip on entry
// and return immediately.  Which roots finish here is scheduling-dependent
// -- phase B makes the *output* deterministic.
void RegClusterMiner::SubmitRoots(util::TaskPool* pool, bool exclusive_pool) {
  if (run_ == nullptr) return;
  EnsureGuard(pool->num_workers() + 1);
  const int num_conds = data_.num_conditions();
  const int num_genes = data_.num_genes();
  run_->scratches =
      std::vector<MinerScratch>(static_cast<size_t>(pool->num_workers()));
  for (MinerScratch& s : run_->scratches) s.Init(num_conds, num_genes);
  MinerScratch* scratches = run_->scratches.data();
  RootWork* work = run_->work.data();
  util::TaskPool* ctl_pool = exclusive_pool ? pool : nullptr;
  // Shared pools track per-run completion so WaitParallelWork() can drain
  // this run without the pool's global barrier; `track` stays null on the
  // exclusive path, where CancelPending may drop queued tasks unrun.
  RunState* track = exclusive_pool ? nullptr : run_.get();
  if (track != nullptr) {
    track->outstanding.fetch_add(static_cast<int64_t>(run_->roots.size()),
                                 std::memory_order_relaxed);
  }
  // Each root task seeds its level-2 subtrees and immediately re-submits
  // them: large subtrees become stealable instead of serializing behind
  // their root, which is what makes imbalanced trees scale.
  for (const int c : run_->roots) {
    RootWork* rw = &work[c];
    pool->Submit([this, c, rw, pool, scratches, ctl_pool, track](int worker) {
      MinerScratch* scratch = &scratches[worker];
      TaskControl ctl = MakeControl(scratch, worker, ctl_pool);
      rw->ctx.ctl = &ctl;
      const bool seed_ok = !ctl.CheckAbort() && SeedRoot(c, rw, scratch);
      ctl.Finish();
      rw->ctx.ctl = nullptr;
      if (!seed_ok) {  // abandoned: the root stays incomplete
        if (track != nullptr) track->TaskDone();
        return;
      }
      rw->subtree_ctx.resize(rw->seeds.size());
      rw->seeded.store(true, std::memory_order_release);
      if (track != nullptr) {
        track->outstanding.fetch_add(static_cast<int64_t>(rw->seeds.size()),
                                     std::memory_order_relaxed);
      }
      for (size_t i = 0; i < rw->seeds.size(); ++i) {
        pool->Submit([this, c, rw, i, scratches, ctl_pool, track](int w) {
          MinerScratch* s = &scratches[w];
          TaskControl sub_ctl = MakeControl(s, w, ctl_pool);
          SearchContext* ctx = &rw->subtree_ctx[i];
          ctx->ctl = &sub_ctl;
          if (!sub_ctl.CheckAbort()) {
            MineSubtree(c, &rw->seeds[i], s, ctx);
          }
          sub_ctl.Finish();
          ctx->ctl = nullptr;
          if (!sub_ctl.stopped) {
            rw->subtrees_done.fetch_add(1, std::memory_order_acq_rel);
          }
          if (track != nullptr) track->TaskDone();
        });
      }
      if (track != nullptr) track->TaskDone();
    });
  }
}

void RegClusterMiner::WaitParallelWork() {
  if (run_ == nullptr) return;
  RunState* run = run_.get();
  if (run->outstanding.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lock(run->wait_mu);
  run->wait_cv.wait(lock, [run] {
    return run->outstanding.load(std::memory_order_acquire) == 0;
  });
}

util::StatusOr<std::vector<RegCluster>> RegClusterMiner::Finalize() {
  if (run_ == nullptr) {
    return util::Status::FailedPrecondition(
        "Finalize() requires a successful Prepare()");
  }
  const int num_conds = data_.num_conditions();
  const int num_genes = data_.num_genes();
  const int threads = run_->threads;
  std::vector<RootWork>& work = run_->work;
  // Serial staged runs reach here without a phase A; the guard (and with it
  // the deadline clock) then starts now.
  EnsureGuard(threads + 1);
  int64_t parallel_scratch_bytes = 0;
  for (const MinerScratch& s : run_->scratches) {
    parallel_scratch_bytes += s.ApproxBytes();
  }

  // Phase B: canonical finalize -- the whole mining pass when threads <= 1.
  // Walk the roots in canonical order; re-run any incomplete root serially
  // under the *remaining* count budget; include a root iff its own
  // deterministic node/cluster totals fit what is left.  The totals are
  // per-root DFS invariants, so the cut root -- and hence the output -- is
  // identical for every thread count; only the scheduling-dependent question
  // "was this root mined in phase A or re-run here?" varies, and it is
  // unobservable in the result.  Hard stops (cancel / deadline / memory)
  // forbid repair work, so they cut at the first root that is not already
  // complete: still a valid canonical prefix, but its length legitimately
  // depends on machine speed.
  obs::PhaseSpan phase_b(&outcome_.phase_b_seconds);
  MinerScratch fin_scratch;
  fin_scratch.Init(num_conds, num_genes);
  const int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  int64_t node_rem = options_.max_nodes >= 0 ? options_.max_nodes : kUnlimited;
  int64_t cluster_rem =
      options_.max_clusters >= 0 ? options_.max_clusters : kUnlimited;
  util::StopReason stop = util::StopReason::kNone;
  int roots_included = 0;
  std::vector<RegCluster> out;
  for (const int c : run_->roots) {
    RootWork& rw = work[static_cast<size_t>(c)];
    if (!rw.Complete()) {
      if (guard_ != nullptr &&
          guard_->hard_reason() != util::StopReason::kNone) {
        stop = guard_->hard_reason();
        break;
      }
      rw.Reset();
      TaskControl ctl = MakeControl(&fin_scratch, run_->fin_slot, nullptr);
      ctl.hard_only = true;
      ctl.node_quota = node_rem;
      ctl.cluster_quota = cluster_rem;
      rw.ctx.ctl = &ctl;
      bool ok = SeedRoot(c, &rw, &fin_scratch);
      rw.ctx.ctl = nullptr;
      if (ok) {
        rw.subtree_ctx.resize(rw.seeds.size());
        for (size_t i = 0; i < rw.seeds.size() && ok; ++i) {
          rw.subtree_ctx[i].ctl = &ctl;
          MineSubtree(c, &rw.seeds[i], &fin_scratch, &rw.subtree_ctx[i]);
          rw.subtree_ctx[i].ctl = nullptr;
          ok = !ctl.stopped;
        }
      }
      ctl.Finish();
      if (!ok) {
        stop = ctl.stop_reason;
        break;
      }
    }
    // Deterministic inclusion test, from the root's recorded totals.
    int64_t root_nodes = rw.ctx.stats.nodes_expanded;
    int64_t root_clusters = rw.ctx.stats.clusters_emitted;
    for (const SearchContext& ctx : rw.subtree_ctx) {
      root_nodes += ctx.stats.nodes_expanded;
      root_clusters += ctx.stats.clusters_emitted;
    }
    if (root_nodes > node_rem) {
      stop = util::StopReason::kNodeBudget;
      break;
    }
    if (root_clusters > cluster_rem) {
      stop = util::StopReason::kClusterBudget;
      break;
    }
    node_rem -= root_nodes;
    cluster_rem -= root_clusters;
    ++roots_included;
    if (options_.capture_root_results) {
      // Copy the slice before the canonical merge moves the clusters out.
      RootMineResult rr;
      rr.root = c;
      rr.stats = rw.ctx.stats;
      for (const SearchContext& ctx : rw.subtree_ctx) {
        AccumulateStats(ctx.stats, &rr.stats);
        rr.clusters.insert(rr.clusters.end(), ctx.out.begin(), ctx.out.end());
      }
      root_results_.push_back(std::move(rr));
    }
    // Canonical (root, second-condition) merge: deterministic regardless of
    // thread count and of which worker ran which task.
    AccumulateStats(rw.ctx.stats, &stats_);
    for (SearchContext& ctx : rw.subtree_ctx) {
      AccumulateStats(ctx.stats, &stats_);
      out.insert(out.end(), std::make_move_iterator(ctx.out.begin()),
                 std::make_move_iterator(ctx.out.end()));
    }
  }
  phase_b.Stop();
  if (options_.remove_dominated) out = RemoveDominated(std::move(out));
  stats_.mine_seconds = run_->mine_timer.ElapsedSeconds();

  const bool truncated = stop != util::StopReason::kNone;
  outcome_.status = truncated ? MineStatus::kTruncated : MineStatus::kComplete;
  outcome_.stop_reason = stop;
  outcome_.nodes_visited =
      guard_ != nullptr ? guard_->total_nodes() : stats_.nodes_expanded;
  outcome_.roots_completed = roots_included;
  outcome_.roots_total = static_cast<int>(run_->roots.size());
  outcome_.wall_seconds = run_->total_timer.ElapsedSeconds();
  outcome_.peak_scratch_bytes =
      std::max<int64_t>(guard_ != nullptr ? guard_->peak_bytes() : 0,
                        parallel_scratch_bytes + fin_scratch.ApproxBytes());
  outcome_.budget_polls = guard_ != nullptr ? guard_->total_polls() : 0;
  outcome_.model_bytes = static_cast<int64_t>(model_->MemoryBytes());
  outcome_.mapped_bytes = data_.mapped_bytes();
  if (model_->cache != nullptr) {
    const ModelCache::Stats cs = model_->cache->stats();
    outcome_.model_cache_hits = cs.hits;
    outcome_.model_cache_misses = cs.misses;
    outcome_.model_cache_evictions = cs.evictions;
    outcome_.model_cache_resident_bytes = cs.resident_bytes;
  }
  run_.reset();
  return out;
}

bool RegClusterMiner::HasAllRequired(const MemberCols& p, const MemberCols& n,
                                     MinerScratch* scratch) const {
  if (num_required_ == 0) return true;
  // Epoch-stamped distinct count: at level 1 a required gene can sit in both
  // lists, so presence is deduplicated via the per-gene stamp -- one pass,
  // no allocation.
  const uint64_t epoch = ++scratch->epoch;
  int distinct = 0;
  for (const int gene : p.gene) {
    const size_t g = static_cast<size_t>(gene);
    if (required_gene_[g] && scratch->gene_epoch[g] != epoch) {
      scratch->gene_epoch[g] = epoch;
      ++distinct;
    }
  }
  for (const int gene : n.gene) {
    const size_t g = static_cast<size_t>(gene);
    if (required_gene_[g] && scratch->gene_epoch[g] != epoch) {
      scratch->gene_epoch[g] = epoch;
      ++distinct;
    }
  }
  return distinct == num_required_;
}

template <bool kCollect>
void RegClusterMiner::PrepareNode(int m, int ckm, NodeFrame* node,
                                  MinerStats* stats) {
  const int words = index_->num_words();
  const int need = options_.min_conditions - m;
  const bool prune2 = options_.prune_min_conds;
  const uint64_t* ones = index_->ones_row();
  const int num_conds = index_->num_conditions();

  const auto cache = [&](const MemberCols& mem, bool up,
                         std::vector<uint64_t>& comb,
                         std::vector<int64_t>& off,
                         std::vector<double>& base) {
    const size_t count = static_cast<size_t>(mem.size());
    comb.resize(count * static_cast<size_t>(words));
    off.resize(count);
    base.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const int g = mem.gene[i];
      const int pos = mem.head_pos[i];
      const uint64_t* cand_row =
          up ? index_->UpCandidates(g, pos) : index_->DownCandidates(g, pos);
      const uint64_t* elig =
          prune2 ? (up ? index_->UpEligible(g, need)
                       : index_->DownEligible(g, need))
                 : ones;
      uint64_t* dst = comb.data() + i * static_cast<size_t>(words);
      util::simd::AndWordsAuto(*ops_, dst, cand_row, elig, words);
      off[i] = static_cast<int64_t>(g) * num_conds;
      base[i] = data_.row_data(g)[ckm];
    }
    // One AND per word per member; a bulk add outside the loop keeps the
    // accounting off the hot path entirely.
    if constexpr (kCollect) {
      stats->index_word_ops += static_cast<int64_t>(count) * words;
    }
  };
  cache(node->p, /*up=*/true, node->p_comb, node->p_off, node->p_base);
  cache(node->n, /*up=*/false, node->n_comb, node->n_off, node->n_base);

  // Candidate generation: OR over the p-member rows only (licensed by
  // pruning 3a), intersected with the allowed set; then snapshot the set
  // bits in ascending condition order.
  node->cand_words.assign(static_cast<size_t>(words), 0);
  const size_t np = static_cast<size_t>(node->p.size());
  for (size_t i = 0; i < np; ++i) {
    const uint64_t* src = node->p_comb.data() + i * static_cast<size_t>(words);
    util::simd::OrWordsIntoAuto(*ops_, node->cand_words.data(), src, words);
  }
  util::simd::AndWordsAuto(*ops_, node->cand_words.data(),
                           node->cand_words.data(), allowed_words_.data(),
                           words);
  if constexpr (kCollect) {
    stats->index_word_ops += static_cast<int64_t>(np + 1) * words;
  }
  node->cands.clear();
  util::ForEachSetBit(node->cand_words.data(), words,
                      [&](int c) { node->cands.push_back(c); });

  // Transpose each member's candidate row (restricted to the node's
  // candidate set) into per-candidate bitmaps over member indices, so the
  // per-extension filter touches only surviving members.  Alongside, the
  // pruning-2 drop counter -- members that are regulation-linked to a
  // candidate but cut by the MinC bound -- is a popcount over
  // successor & ~combined & candidates, accumulated for the whole node
  // here rather than per candidate (identical totals; with an active
  // max_nodes / max_clusters cap a mid-node budget stop no longer leaves
  // the counter at a scheduling-dependent prefix).
  const auto transpose = [&](const MemberCols& mem, bool up,
                             const std::vector<uint64_t>& comb,
                             std::vector<uint64_t>& trans, int* trans_words) {
    const size_t count = static_cast<size_t>(mem.size());
    const int mw = util::WordsForBits(static_cast<int>(count));
    *trans_words = mw;
    trans.assign(static_cast<size_t>(num_conds) * mw, 0);
    int64_t drops = 0;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t* comb_row = comb.data() + i * static_cast<size_t>(words);
      const size_t member_word = i >> 6;
      const uint64_t member_bit = uint64_t{1} << (i & 63);
      if (prune2) {
        const uint64_t* succ_row =
            up ? index_->UpCandidates(mem.gene[i], mem.head_pos[i])
               : index_->DownCandidates(mem.gene[i], mem.head_pos[i]);
        drops += util::simd::AndNotMaskPopcountAuto(
            *ops_, succ_row, comb_row, node->cand_words.data(), words);
      }
      for (int w = 0; w < words; ++w) {
        uint64_t live = comb_row[w] & node->cand_words[w];
        while (live) {
          const int c = w * util::kBitsPerWord + std::countr_zero(live);
          live &= live - 1;
          trans[static_cast<size_t>(c) * mw + member_word] |= member_bit;
        }
      }
    }
    stats->genes_dropped_min_conds += drops;
    if constexpr (kCollect) {
      stats->index_word_ops += static_cast<int64_t>(count) * words;
    }
  };
  transpose(node->p, /*up=*/true, node->p_comb, node->p_trans,
            &node->p_words);
  transpose(node->n, /*up=*/false, node->n_comb, node->n_trans,
            &node->n_words);
}

int RegClusterMiner::FilterCandidate(int cand, int min_keep,
                                     NodeFrame* node) const {
  node->ClearScored();
  const uint64_t* p_bits =
      node->p_trans.data() + static_cast<size_t>(cand) * node->p_words;
  const uint64_t* n_bits =
      node->n_trans.data() + static_cast<size_t>(cand) * node->n_words;

  // Count first: the set bits of the two transposed member bitmaps are
  // exactly the survivors the gather below would emit, so a candidate short
  // of `min_keep` is dropped on two popcounts -- no decode, no matrix read.
  // On loose epsilon nearly every extension dies here.  At level 1 a gene
  // may sit in both lists; the sum still equals the gather's total.
  const int count = util::PopcountWords(p_bits, node->p_words) +
                    util::PopcountWords(n_bits, node->n_words);
  if (count < min_keep) return 0;

  // Walk only the members whose candidate row holds `cand` (the set bits of
  // the transposed bitmap); member indices ascend, so each scored half
  // inherits the gene-ascending member order.  The survivor indices are
  // decoded into `filt`, then one dispatched gather kernel pulls each
  // survivor's gene, head position, denominator and coherence *numerator*
  // (row[cand] - base; the caller divides) into the scored columns.
  const double* matrix = data_.row_data(0);
  const auto filter = [&](const MemberCols& mem, const uint64_t* member_bits,
                          int trans_words, const std::vector<int64_t>& off,
                          const std::vector<double>& base) {
    node->filt.clear();
    util::ForEachSetBit(member_bits, trans_words,
                        [&](int i) { node->filt.push_back(i); });
    const int count = static_cast<int>(node->filt.size());
    const size_t old = node->sc_gene.size();
    const size_t grown = old + static_cast<size_t>(count);
    node->sc_gene.resize(grown);
    node->sc_denom.resize(grown);
    node->sc_h.resize(grown);
    const util::simd::GatherScoredArgs args{mem.gene.data(), mem.denom.data(),
                                            base.data(), off.data(), matrix,
                                            cand};
    ops_->gather_scored(args, count, node->filt.data(),
                        node->sc_gene.data() + old,
                        node->sc_denom.data() + old, node->sc_h.data() + old);
  };
  filter(node->p, p_bits, node->p_words, node->p_off, node->p_base);
  const int split = static_cast<int>(node->sc_gene.size());
  filter(node->n, n_bits, node->n_words, node->n_off, node->n_base);
  return split;
}

bool RegClusterMiner::SeedRoot(int root_condition, RootWork* work,
                               MinerScratch* scratch) {
  return options_.collect_stats
             ? SeedRootImpl<true>(root_condition, work, scratch)
             : SeedRootImpl<false>(root_condition, work, scratch);
}

template <bool kCollect>
bool RegClusterMiner::SeedRootImpl(int root_condition, RootWork* work,
                                   MinerScratch* scratch) {
  SearchContext* ctx = &work->ctx;
  if (!allowed_cond_[static_cast<size_t>(root_condition)]) return true;
  // Level-1 chain: the root condition, with the genes that can still grow a
  // chain of length MinC through it upward (p) or downward (n).
  NodeFrame& node = scratch->root_frame;
  node.p.clear();
  node.n.clear();
  const int num_genes = data_.num_genes();
  const int min_c = options_.min_conditions;
  const bool prune2 = options_.prune_min_conds;
  for (int g = 0; g < num_genes; ++g) {
    const int pos = index_->position(g, root_condition);
    const bool up_ok =
        !prune2 || index_->ChainEligibleUp(g, root_condition, min_c);
    const bool down_ok =
        !prune2 || index_->ChainEligibleDown(g, root_condition, min_c);
    if (up_ok) node.p.push_back(g, pos, 0.0);
    if (down_ok) node.n.push_back(g, pos, 0.0);
    ctx->stats.genes_dropped_min_conds += (up_ok ? 0 : 1) + (down_ok ? 0 : 1);
  }

  // The level-1 body of the search (the m == 1 specialization of Extend):
  // no emission is possible (MinC >= 2) and every coherence score of the
  // first extension is identically 1 (Eq. 7), so each candidate yields a
  // single all-inclusive window -- one SubtreeSeed.
  if (!HasAllRequired(node.p, node.n, scratch)) return true;
  if (ctx->ctl->OnNode()) return false;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  // Pruning (1): at level 1 a gene may appear in both member lists; the sum
  // is then an over-estimate of the union, which is safe (prunes less).
  const int total_members = node.p.size() + node.n.size();
  if (options_.prune_min_genes && total_members < min_g) {
    ++ctx->stats.pruned_min_genes;
    return true;
  }
  // Pruning (3a): fewer than MinG/2 p-members can never be a majority.
  if (options_.prune_p_majority && 2 * node.p.size() < min_g) {
    ++ctx->stats.pruned_p_majority;
    return true;
  }

  const int min_keep = options_.prune_min_genes ? min_g : 0;
  PrepareNode<kCollect>(/*m=*/1, /*ckm=*/root_condition, &node, &ctx->stats);
  for (const int cand : node.cands) {
    if (ctx->ctl->CheckAbort()) return false;
    ++ctx->stats.extensions_tested;

    const int split = FilterCandidate(cand, min_keep, &node);
    const int total = static_cast<int>(node.sc_gene.size());
    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }

    // Materialize the subtree seed.  The baseline pair (root, cand) is now
    // fixed for the entire branch, and the filter's numerator column
    // row[cand] - row[root] *is* each member's coherence denominator.
    SubtreeSeed seed;
    seed.second_condition = cand;
    const int seed_total = static_cast<int>(node.sc_gene.size());
    seed.p_members.gene.assign(node.sc_gene.begin(),
                               node.sc_gene.begin() + split);
    seed.p_members.denom.assign(node.sc_h.begin(), node.sc_h.begin() + split);
    seed.p_members.head_pos.resize(static_cast<size_t>(split));
    seed.n_members.gene.assign(node.sc_gene.begin() + split,
                               node.sc_gene.end());
    seed.n_members.denom.assign(node.sc_h.begin() + split, node.sc_h.end());
    seed.n_members.head_pos.resize(static_cast<size_t>(seed_total - split));
    // Head positions are looked up here, not gathered by the filter kernel:
    // level-1 survivors all get materialized, so the cost is identical, and
    // the deep-search filter skips them (most of its survivors are
    // coherence-pruned: 237,058 of 261,628 extensions, 90.6%, on the
    // benchmark's mine_tight).
    for (int i = 0; i < split; ++i) {
      seed.p_members.head_pos[static_cast<size_t>(i)] =
          index_->position(seed.p_members.gene[static_cast<size_t>(i)], cand);
    }
    for (int i = 0; i < seed_total - split; ++i) {
      seed.n_members.head_pos[static_cast<size_t>(i)] =
          index_->position(seed.n_members.gene[static_cast<size_t>(i)], cand);
    }
    work->seeds.push_back(std::move(seed));
  }
  return true;
}

void RegClusterMiner::MineSubtree(int root_condition, SubtreeSeed* seed,
                                  MinerScratch* scratch, SearchContext* ctx) {
  if (options_.collect_stats) {
    MineSubtreeImpl<true>(root_condition, seed, scratch, ctx);
  } else {
    MineSubtreeImpl<false>(root_condition, seed, scratch, ctx);
  }
}

template <bool kCollect>
void RegClusterMiner::MineSubtreeImpl(int root_condition, SubtreeSeed* seed,
                                      MinerScratch* scratch,
                                      SearchContext* ctx) {
  scratch->chain.clear();
  scratch->chain.push_back(root_condition);
  scratch->chain.push_back(seed->second_condition);
  NodeFrame& node = scratch->frame(0);
  node.p = std::move(seed->p_members);
  node.n = std::move(seed->n_members);
  Extend<kCollect>(0, scratch, ctx);
}

template <bool kCollect>
void RegClusterMiner::Extend(int depth, MinerScratch* scratch,
                             SearchContext* ctx) {
  NodeFrame& node = scratch->frame(depth);
  if (!HasAllRequired(node.p, node.n, scratch)) return;
  if (ctx->ctl->OnNode()) return;
  ++ctx->stats.nodes_expanded;

  const int min_g = options_.min_genes;
  const int min_keep = options_.prune_min_genes ? min_g : 0;
  const int m = static_cast<int>(scratch->chain.size());

  // Pruning (1): not enough genes overall.  For m >= 2 the member lists are
  // disjoint, so the sum is the exact union size.
  const int total_members = node.p.size() + node.n.size();
  if (options_.prune_min_genes && total_members < min_g) {
    ++ctx->stats.pruned_min_genes;
    return;
  }
  // Pruning (3a): fewer than MinG/2 p-members can never be a majority.
  if (options_.prune_p_majority && 2 * node.p.size() < min_g) {
    ++ctx->stats.pruned_p_majority;
    return;
  }

  // Step 3: emit if validated and representative; a duplicate prunes the
  // whole branch (pruning 3b).  Under closed_chains_only the emission is
  // deferred until we know whether some extension keeps the entire member
  // set (in which case this node is subsumed and stays silent).
  const bool emit_candidate =
      m >= options_.min_conditions && total_members >= min_g;
  if (emit_candidate && !options_.closed_chains_only) {
    if (!MaybeEmit<kCollect>(scratch->chain, node.p, node.n, ctx)) {
      return;
    }
    if (ctx->ctl->stopped) return;  // the emission exhausted a quota
  }
  bool child_kept_all = false;

  // Step 4: candidate generation and per-member row caching (bitmap ORs and
  // bit probes against the RWaveBitmapIndex replace the per-gene model
  // walks; the sets produced are identical by construction).
  const bool profile = options_.profile_phases;
  int64_t t0 = profile ? NowNs() : 0;
  const int ckm = scratch->chain[static_cast<size_t>(m) - 1];
  PrepareNode<kCollect>(m, ckm, &node, &ctx->stats);
  if (profile) ctx->stats.filter_ns += NowNs() - t0;

  for (const int cand : node.cands) {
    if (ctx->ctl->CheckAbort()) return;
    ++ctx->stats.extensions_tested;

    // Filter: genes of X^cand -- p-members stepping up to cand, n-members
    // stepping down, both still able to reach MinC (pruning 2) -- with the
    // coherence numerator row[cand] - row[ckm] collected alongside.  A
    // candidate short of MinG comes back empty before any gather.
    if (profile) t0 = NowNs();
    const int split = FilterCandidate(cand, min_keep, &node);
    const int total = static_cast<int>(node.sc_gene.size());
    if (profile) ctx->stats.filter_ns += NowNs() - t0;

    if (options_.prune_min_genes && total < min_g) {
      ++ctx->stats.pruned_min_genes;
      continue;
    }

    // Score: one contiguous divide pass turns numerators into coherence
    // scores H (Eq. 7); the member's cached baseline denominator makes the
    // formula identical for p- and n-members (both flip sign, Lemma 3.2).
    if (profile) t0 = NowNs();
    double* h = node.sc_h.data();
    const double* denom = node.sc_denom.data();
    ops_->divide_columns(h, denom, total);
    if constexpr (kCollect) {
      ++ctx->stats.coherence_divide_calls;
      ctx->stats.coherence_scores += total;
    }
    if (profile) ctx->stats.score_ns += NowNs() - t0;

    // Sort: index-sort over the score column; rows never move.  The
    // dispatched kernel reproduces the (score asc, gene asc) comparator
    // order byte for byte, and also emits the sorted score column so the
    // window scan below runs over contiguous memory instead of chasing
    // order[] indirections (see util/simd/radix_sort.h).
    if (profile) t0 = NowNs();
    node.order.resize(static_cast<size_t>(total));
    node.sc_hs.resize(static_cast<size_t>(total));
    ops_->sort_scored(h, node.sc_gene.data(), split, total, node.order.data(),
                      node.sc_hs.data(), &scratch->sort_scratch);
    if (profile) ctx->stats.sort_ns += NowNs() - t0;

    // Sliding window (step 5): maximal intervals of score span <= epsilon
    // with at least MinG genes; each spawns a child node.
    const double eps = options_.epsilon;
    bool any_window = false;
    const size_t n_scored = static_cast<size_t>(total);
    const double* hs = node.sc_hs.data();
    size_t hi = 0;
    size_t prev_hi = 0;  // hi of the previous lo, for the maximality test
    for (size_t lo = 0; lo < n_scored; ++lo) {
      if (hi < lo + 1) hi = lo + 1;
      while (hi < n_scored && hs[hi] - hs[lo] <= eps) {
        ++hi;
      }
      // [lo, hi) is the widest window starting at lo; hi is non-decreasing
      // in lo, so the window is maximal (not contained in the previous
      // window) iff hi advanced.
      const bool maximal = lo == 0 || hi > prev_hi;
      prev_hi = hi;
      if (!maximal || static_cast<int>(hi - lo) < min_g) continue;
      any_window = true;
      if (lo == 0 && hi == n_scored && total == total_members) {
        child_kept_all = true;
      }
      // Child build: window indices below the split are p-members.  Each
      // scored half is gene-ascending, so sorting the index subsets
      // restores the deterministic by-gene member order.
      node.win_p.clear();
      node.win_n.clear();
      for (size_t i = lo; i < hi; ++i) {
        const int idx = node.order[i];
        (idx < split ? node.win_p : node.win_n).push_back(idx);
      }
      std::sort(node.win_p.begin(), node.win_p.end());
      std::sort(node.win_n.begin(), node.win_n.end());
      NodeFrame& child = scratch->frame(depth + 1);
      child.p.clear();
      child.n.clear();
      // Lazy head lookup: only members of a window that actually spawns a
      // child ever need their position at `cand` (see GatherScoredArgs).
      for (const int idx : node.win_p) {
        const int g = node.sc_gene[static_cast<size_t>(idx)];
        child.p.push_back(g, index_->position(g, cand),
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      for (const int idx : node.win_n) {
        const int g = node.sc_gene[static_cast<size_t>(idx)];
        child.n.push_back(g, index_->position(g, cand),
                          node.sc_denom[static_cast<size_t>(idx)]);
      }
      scratch->chain.push_back(cand);
      Extend<kCollect>(depth + 1, scratch, ctx);
      scratch->chain.pop_back();
      if (ctx->ctl->stopped) return;
    }
    if (!any_window) ++ctx->stats.pruned_coherence;
  }

  if (emit_candidate && options_.closed_chains_only && !child_kept_all) {
    (void)MaybeEmit<kCollect>(scratch->chain, node.p, node.n, ctx);
  }
}

template <bool kCollect>
bool RegClusterMiner::MaybeEmit(const std::vector<int>& chain,
                                const MemberCols& p, const MemberCols& n,
                                SearchContext* ctx) {
  const size_t np = static_cast<size_t>(p.size());
  const size_t nn = static_cast<size_t>(n.size());
  const bool representative =
      np > nn || (np == nn && LexSmallerThanReversed(chain));
  if (!representative) return true;  // keep searching; no output here

  const bool profile = options_.profile_phases;
  const int64_t t0 = profile ? NowNs() : 0;
  if (options_.prune_duplicates) {
    // 128-bit key over (ordered chain | sorted gene union) -- the same
    // identity as RegCluster::Key(), without building any string.  Emission
    // requires m >= MinC >= 2, where the member lists are disjoint and
    // gene-sorted, so the union is a plain merge walk.
    util::Fnv128 key;
    for (int c : chain) key.MixInt(c);
    key.MixInt(-1);  // domain separator between chain and gene ids
    size_t i = 0;
    size_t j = 0;
    while (i < np || j < nn) {
      if (j >= nn || (i < np && p.gene[i] < n.gene[j])) {
        key.MixInt(p.gene[i++]);
      } else {
        key.MixInt(n.gene[j++]);
      }
    }
    if constexpr (kCollect) ++ctx->stats.dedup_probes;
    auto [it, inserted] = ctx->seen_keys.insert(key.Digest());
    (void)it;
    if (!inserted) {
      ++ctx->stats.pruned_duplicate;
      if (profile) ctx->stats.emit_ns += NowNs() - t0;
      return false;  // prune the branch rooted at this duplicate
    }
  }

  RegCluster cluster;
  cluster.chain = chain;
  cluster.p_genes = p.gene;
  cluster.n_genes = n.gene;
  ctx->out.push_back(std::move(cluster));
  ++ctx->stats.clusters_emitted;
  ctx->ctl->OnEmit(static_cast<int64_t>(
      (chain.size() + np + nn) * sizeof(int) + sizeof(RegCluster)));
  if (profile) ctx->stats.emit_ns += NowNs() - t0;
  return true;
}

}  // namespace core
}  // namespace regcluster
