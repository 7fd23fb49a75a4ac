#include "io/incremental.h"

#include <bit>
#include <numeric>
#include <utility>

#include "core/options.h"
#include "core/threshold.h"
#include "util/bitset.h"
#include "util/durable_file.h"
#include "util/timer.h"

namespace regcluster {
namespace io {

namespace {

constexpr char kMagic[8] = {'R', 'G', 'C', 'X', 'I', 'N', 'C', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kPreambleBytes = 16;  // magic + version + endian
constexpr const char* kNoun = "incremental-state";

/// The execution shapes root-granular splicing cannot reproduce.  Each is a
/// distinct InvalidArgument so callers learn which knob to drop.
util::Status ValidateIncrementalOptions(const core::MinerOptions& o) {
  // Before any model build: a model is never built for invalid options.
  REGCLUSTER_RETURN_IF_ERROR(core::ValidateMinerOptions(o));
  if (o.max_nodes >= 0 || o.max_clusters >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use node/cluster budgets: a truncated "
        "run has no per-root slices to splice from");
  }
  if (o.deadline_ms >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a deadline");
  }
  if (o.soft_memory_limit_bytes >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a memory limit");
  }
  if (o.cancel_token != nullptr) {
    return util::Status::InvalidArgument(
        "incremental mining cannot use a cancel token");
  }
  if (!o.root_set.empty()) {
    return util::Status::InvalidArgument(
        "incremental mining manages root_set itself");
  }
  if (o.capture_root_results) {
    return util::Status::InvalidArgument(
        "incremental mining manages capture_root_results itself");
  }
  if (o.shared_model != nullptr) {
    return util::Status::InvalidArgument(
        "incremental mining manages the gamma model itself; pass the "
        "previous step's model as prev_model");
  }
  if (o.model_cache_bytes >= 0) {
    return util::Status::InvalidArgument(
        "incremental mining requires the resident model path "
        "(model_cache_bytes < 0): delta updates need the previous models");
  }
  return util::Status::OK();
}

/// Mines the given roots of `data` on `model`, capturing per-root slices.
util::Status MineRootSlices(const matrix::MatrixStore& data,
                            const core::MinerOptions& options,
                            std::shared_ptr<const core::SharedGammaModel>
                                model,
                            std::vector<int> roots,
                            std::vector<core::RootMineResult>* slices) {
  core::MinerOptions slice_opts = SliceOptions(options);
  slice_opts.capture_root_results = true;
  slice_opts.shared_model = std::move(model);
  slice_opts.root_set = std::move(roots);
  core::RegClusterMiner miner(data, slice_opts);
  auto clusters = miner.Mine();
  if (!clusters.ok()) return clusters.status();
  *slices = miner.root_results();
  return util::Status::OK();
}

/// Assembles the final result from a complete ledger.
IncrementalMineResult AssembleResult(
    RootLedger ledger, std::shared_ptr<const core::SharedGammaModel> model,
    double mine_seconds) {
  IncrementalMineResult r;
  r.state = std::move(ledger);
  r.clusters = r.state.Output();
  // The splice is the whole run, so the run-level fields mirror what a
  // non-shared Mine() would have reported: one model build (ours), its
  // build times, and this call's wall clock.
  r.stats = r.state.SummedStats();
  r.stats.index_builds = 1;
  r.stats.rwave_build_seconds = model->rwave_build_seconds;
  r.stats.index_build_seconds = model->index_build_seconds;
  r.stats.mine_seconds = mine_seconds;
  r.model = std::move(model);
  return r;
}

}  // namespace

std::vector<int> ComputeDirtyRoots(const core::RWaveBitmapIndex& index,
                                   int first_new) {
  const int num_conds = index.num_conditions();
  const int num_genes = index.num_genes();
  const int words = index.num_words();
  std::vector<int> dirty;
  if (first_new >= num_conds) return dirty;
  const int first_word = first_new / 64;
  const uint64_t first_mask = ~uint64_t{0} << (first_new % 64);
  const auto has_new_bit = [&](const uint64_t* row) {
    if ((row[first_word] & first_mask) != 0) return true;
    for (int w = first_word + 1; w < words; ++w) {
      if (row[w] != 0) return true;
    }
    return false;
  };
  for (int r = 0; r < first_new; ++r) {
    bool is_dirty = false;
    for (int g = 0; g < num_genes && !is_dirty; ++g) {
      const int pos = index.position(g, r);
      is_dirty = has_new_bit(index.UpCandidates(g, pos)) ||
                 has_new_bit(index.DownCandidates(g, pos));
    }
    if (is_dirty) dirty.push_back(r);
  }
  for (int r = first_new; r < num_conds; ++r) dirty.push_back(r);
  return dirty;
}

util::StatusOr<IncrementalMineResult> MineInitial(
    const matrix::MatrixStore& data, const core::MinerOptions& options) {
  REGCLUSTER_RETURN_IF_ERROR(ValidateIncrementalOptions(options));
  const core::GammaSpec spec{options.gamma_policy, options.gamma};
  util::WallTimer timer;
  auto model = core::SharedGammaModel::Build(
      data, spec, options.min_conditions, options.num_threads);
  RootLedger ledger = NewLedger(data, options);
  // Empty root_set = a plain full run; the capture hook records every root.
  REGCLUSTER_RETURN_IF_ERROR(
      MineRootSlices(data, options, model, {}, &ledger.roots));
  return AssembleResult(std::move(ledger), std::move(model),
                        timer.ElapsedSeconds());
}

util::StatusOr<IncrementalMineResult> MineIncremental(
    const matrix::MatrixStore& new_data, int first_new,
    const core::MinerOptions& options, const IncrementalState& prev,
    std::shared_ptr<const core::SharedGammaModel> prev_model) {
  REGCLUSTER_RETURN_IF_ERROR(ValidateIncrementalOptions(options));
  const int num_genes = new_data.num_genes();
  const int num_conds = new_data.num_conditions();
  if (first_new < 0 || first_new > num_conds) {
    return util::Status::InvalidArgument(
        "first_new must be in [0, num_conditions]");
  }
  REGCLUSTER_RETURN_IF_ERROR(
      CheckLedgerIdentity(prev, new_data, first_new, options));
  if (!prev.complete()) {
    return util::Status::FailedPrecondition(
        "incremental state does not cover every previous root");
  }

  const core::GammaSpec spec{options.gamma_policy, options.gamma};
  util::WallTimer timer;
  std::shared_ptr<const core::SharedGammaModel> model;
  const bool model_compatible =
      prev_model != nullptr && prev_model->cache == nullptr &&
      prev_model->index.num_genes() == num_genes &&
      prev_model->index.num_conditions() == first_new &&
      prev_model->spec.policy == spec.policy &&
      std::bit_cast<uint64_t>(prev_model->spec.gamma) ==
          std::bit_cast<uint64_t>(spec.gamma) &&
      prev_model->max_chain_need >= options.min_conditions;
  if (model_compatible) {
    model = core::SharedGammaModel::UpdateAppend(
        *prev_model, new_data, first_new, options.num_threads);
  } else {
    model = core::SharedGammaModel::Build(new_data, spec,
                                          options.min_conditions,
                                          options.num_threads);
  }

  // All-dirty fallbacks first: a moved per-gene threshold changes regulation
  // among the *old* conditions, and a grown bitmap word count changes every
  // root's index_word_ops -- either way no old slice is reusable.
  bool all_dirty =
      util::WordsForBits(num_conds) != util::WordsForBits(first_new);
  for (int g = 0; g < num_genes && !all_dirty; ++g) {
    const double old_gamma =
        core::AbsoluteGammaSpan(new_data.row_data(g), first_new, spec);
    const double new_gamma =
        core::AbsoluteGammaSpan(new_data.row_data(g), num_conds, spec);
    all_dirty = std::bit_cast<uint64_t>(old_gamma) !=
                std::bit_cast<uint64_t>(new_gamma);
  }
  std::vector<int> dirty;
  if (all_dirty) {
    dirty.resize(static_cast<size_t>(num_conds));
    std::iota(dirty.begin(), dirty.end(), 0);
  } else {
    dirty = ComputeDirtyRoots(model->index, first_new);
  }

  std::vector<core::RootMineResult> mined;
  if (!dirty.empty()) {
    REGCLUSTER_RETURN_IF_ERROR(
        MineRootSlices(new_data, options, model, dirty, &mined));
  }

  // Splice: the previous ledger's slices with every dirty root replaced by
  // this run's (appended roots are always dirty).
  RootLedger ledger = NewLedger(new_data, options);
  ledger.roots = prev.roots;
  ledger.roots.resize(static_cast<size_t>(num_conds));
  for (core::RootMineResult& slice : mined) {
    ledger.roots[static_cast<size_t>(slice.root)] = std::move(slice);
  }
  auto result = AssembleResult(std::move(ledger), std::move(model),
                               timer.ElapsedSeconds());
  result.roots_remined = static_cast<int>(dirty.size());
  result.roots_spliced = num_conds - static_cast<int>(dirty.size());
  return result;
}

std::string EncodeIncrementalState(const IncrementalState& state) {
  std::string out;
  PutPreamble(&out, std::string_view(kMagic, sizeof kMagic), kVersion);
  EncodeLedgerRecords(state, &out);
  return out;
}

util::StatusOr<IncrementalState> DecodeIncrementalState(
    std::string_view bytes) {
  uint32_t version = 0;
  auto pre = ReadPreamble(bytes, kPreambleBytes,
                          std::string_view(kMagic, sizeof kMagic), kNoun,
                          &version);
  if (!pre.ok()) return pre.status();
  if (version != kVersion) {
    return util::Status::Corruption("unsupported incremental-state version " +
                                    std::to_string(version));
  }
  IncrementalState state;
  RecordStream in(bytes.substr(kPreambleBytes), kNoun);
  REGCLUSTER_RETURN_IF_ERROR(DecodeLedgerRecords(&in, &state));
  if (!in.AtEnd()) {
    return util::Status::Corruption(
        "records after the incremental-state end record");
  }
  if (!state.complete()) {
    return util::Status::Corruption(
        "incremental state does not cover every root");
  }
  return state;
}

util::Status WriteIncrementalStateFile(const std::string& path,
                                       const IncrementalState& state) {
  return util::AtomicWriteFile(path, EncodeIncrementalState(state));
}

util::StatusOr<IncrementalState> LoadIncrementalState(
    const std::string& path) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeIncrementalState(*bytes);
}

}  // namespace io
}  // namespace regcluster
