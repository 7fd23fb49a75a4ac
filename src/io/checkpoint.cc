#include "io/checkpoint.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/options.h"
#include "core/threshold.h"
#include "util/durable_file.h"
#include "util/simd/dispatch.h"
#include "util/timer.h"

namespace regcluster {
namespace io {

namespace {

constexpr char kMagic[8] = {'R', 'G', 'C', 'X', 'C', 'K', 'P', '1'};
// Version 3: a sweep run record no longer carries a resume token.  Version
// 2 added the root ledger to the mine body.  Older snapshots are refused by
// name rather than converted.
constexpr uint32_t kVersion = 3;
constexpr size_t kPreambleBytes = 28;  // magic + version + endian + kind + gen
constexpr const char* kNoun = "checkpoint";

// Record tags.  A mine body opens with the ledger's records (tags 1-3, see
// io/root_ledger.h), so its progress record takes a tag of its own.
constexpr uint32_t kTagSweepContext = 1;
constexpr uint32_t kTagSweepAggregate = 5;
constexpr uint32_t kTagSweepRun = 6;
constexpr uint32_t kTagEnd = 7;
constexpr uint32_t kTagProgress = 8;

// The largest wire values of the enums a sweep snapshot stores.
constexpr auto kMaxStopReason =
    static_cast<uint32_t>(util::StopReason::kClusterBudget);
constexpr auto kMaxStatusCode =
    static_cast<uint32_t>(util::StatusCode::kInternal);

// The MineOutcome subset a sweep snapshot restores (the fields sweep reports
// print).
void PutOutcome(std::string* out, const core::MineOutcome& o) {
  PutU32(out, o.status == core::MineStatus::kTruncated ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(o.stop_reason));
  PutI64(out, o.nodes_visited);
  PutI64(out, o.roots_completed);
  PutI64(out, o.roots_total);
  PutDouble(out, o.wall_seconds);
  PutI64(out, o.peak_scratch_bytes);
}

void ReadOutcome(Cursor* c, core::MineOutcome* o) {
  bool truncated = false;
  uint32_t reason = 0;
  c->ReadBool("outcome status", &truncated);
  c->ReadEnum("outcome stop_reason", kMaxStopReason, &reason);
  c->ReadI64("outcome nodes_visited", &o->nodes_visited);
  c->ReadInt("outcome roots_completed", &o->roots_completed);
  c->ReadInt("outcome roots_total", &o->roots_total);
  c->ReadDouble("outcome wall_seconds", &o->wall_seconds);
  c->ReadI64("outcome peak_scratch_bytes", &o->peak_scratch_bytes);
  o->status =
      truncated ? core::MineStatus::kTruncated : core::MineStatus::kComplete;
  o->stop_reason = static_cast<util::StopReason>(reason);
}

void EncodeSweepBody(const SweepCheckpoint& s, std::string* out) {
  const core::SweepReport& r = s.report;
  PutContext(out, kTagSweepContext, s.grid_hash, s);
  {
    std::string rec;
    PutU32(&rec, kTagSweepAggregate);
    PutI64(&rec, s.first_unfinished);
    PutI64(&rec, s.runs_total);
    PutU32(&rec, r.status == core::MineStatus::kTruncated ? 1 : 0);
    PutU32(&rec, static_cast<uint32_t>(r.stop_reason));
    PutI64(&rec, r.first_unfinished);
    PutI64(&rec, r.index_builds);
    PutI64(&rec, r.shared_model_bytes);
    PutDouble(&rec, r.wall_seconds);
    PutU64(&rec, r.runs.size());
    util::AppendRecord(out, rec);
  }
  for (size_t i = 0; i < r.runs.size(); ++i) {
    const core::SweepRun& run = r.runs[i];
    std::string rec;
    PutU32(&rec, kTagSweepRun);
    PutU32(&rec, static_cast<uint32_t>(i));
    PutU32(&rec, static_cast<uint32_t>(run.status.code()));
    PutString(&rec, run.status.message());
    PutU32(&rec, run.executed ? 1 : 0);
    PutU32(&rec, run.used_shared_model ? 1 : 0);
    PutMinerStats(&rec, run.stats);
    PutOutcome(&rec, run.outcome);
    PutClusters(&rec, run.clusters);
    util::AppendRecord(out, rec);
  }
}

util::Status DecodeSweepBody(RecordStream* in, SweepCheckpoint* s) {
  REGCLUSTER_RETURN_IF_ERROR(
      ReadContext(in, kTagSweepContext, &s->grid_hash, s));
  core::SweepReport& r = s->report;
  r = core::SweepReport();
  uint64_t run_count = 0;
  {
    auto c = in->Expect(kTagSweepAggregate, "sweep aggregate");
    if (!c.ok()) return c.status();
    bool truncated = false;
    uint32_t reason = 0;
    c->ReadI64("first_unfinished", &s->first_unfinished);
    c->ReadI64("runs_total", &s->runs_total);
    c->ReadBool("status", &truncated);
    c->ReadEnum("stop_reason", kMaxStopReason, &reason);
    c->ReadInt("report first_unfinished", &r.first_unfinished);
    c->ReadInt("index_builds", &r.index_builds);
    c->ReadI64("shared_model_bytes", &r.shared_model_bytes);
    c->ReadDouble("wall_seconds", &r.wall_seconds);
    c->ReadU64("run snapshot count", &run_count);
    REGCLUSTER_RETURN_IF_ERROR(c->Done("sweep aggregate"));
    r.status =
        truncated ? core::MineStatus::kTruncated : core::MineStatus::kComplete;
    r.stop_reason = static_cast<util::StopReason>(reason);
  }
  core::MinerStats total;
  for (uint64_t i = 0; i < run_count; ++i) {
    auto c = in->Expect(kTagSweepRun, "sweep run");
    if (!c.ok()) return c.status();
    core::SweepRun run;
    uint32_t index = 0, code = 0;
    std::string message;
    c->ReadU32("run index", &index);
    c->ReadEnum("run status code", kMaxStatusCode, &code);
    c->ReadString("run status message", &message);
    c->ReadBool("run executed", &run.executed);
    c->ReadBool("run used_shared_model", &run.used_shared_model);
    ReadMinerStats(&*c, &run.stats, &total);
    ReadOutcome(&*c, &run.outcome);
    ReadClusters(&*c, &run.clusters);
    REGCLUSTER_RETURN_IF_ERROR(c->Done("sweep run"));
    // Records cover points 0, 1, ... in order, like a ledger's roots.
    if (index != i) {
      return util::Status::Corruption(
          "checkpoint sweep run records out of order");
    }
    if (code == 0 && !message.empty()) {
      return util::Status::Corruption(
          "checkpoint sweep run has an OK status with a message");
    }
    if (code != 0) {
      run.status = util::Status(static_cast<util::StatusCode>(code),
                                std::move(message));
    }
    if (run.executed) {
      ++r.runs_executed;
      r.nodes_total += run.stats.nodes_expanded;
      r.clusters_total += static_cast<int64_t>(run.clusters.size());
    }
    r.runs.push_back(std::move(run));
  }
  // The records cover exactly the points before first_unfinished, or every
  // point once the sweep is complete.
  const int64_t covered = s->complete() ? s->runs_total : s->first_unfinished;
  if (s->first_unfinished < -1 || covered > s->runs_total ||
      static_cast<int64_t>(run_count) != covered) {
    return util::Status::Corruption(
        "checkpoint sweep run count disagrees with first_unfinished");
  }
  return util::Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire format.

std::string EncodeCheckpoint(const Checkpoint& ckpt) {
  std::string out;
  PutPreamble(&out, std::string_view(kMagic, sizeof kMagic), kVersion);
  PutU32(&out, static_cast<uint32_t>(ckpt.kind));
  PutU64(&out, ckpt.generation);
  uint32_t records = 0;
  if (ckpt.kind == CheckpointKind::kMine) {
    // The ledger's records, then the volatile progress telemetry.
    const MineCheckpoint& m = ckpt.mine;
    EncodeLedgerRecords(m.ledger, &out);
    std::string rec;
    PutU32(&rec, kTagProgress);
    PutI64(&rec, m.nodes_visited);
    PutDouble(&rec, m.wall_seconds);
    PutDouble(&rec, m.mine_seconds);
    PutI64(&rec, m.peak_scratch_bytes);
    util::AppendRecord(&out, rec);
    records = static_cast<uint32_t>(3 + m.ledger.roots.size());
  } else {
    EncodeSweepBody(ckpt.sweep, &out);
    records = static_cast<uint32_t>(2 + ckpt.sweep.report.runs.size());
  }
  std::string end;
  PutU32(&end, kTagEnd);
  PutU32(&end, records);
  util::AppendRecord(&out, end);
  return out;
}

util::StatusOr<Checkpoint> DecodeCheckpoint(std::string_view bytes) {
  uint32_t version = 0, kind = 0;
  auto pre = ReadPreamble(bytes, kPreambleBytes,
                          std::string_view(kMagic, sizeof kMagic), kNoun,
                          &version);
  if (!pre.ok()) return pre.status();
  Checkpoint ckpt;
  pre->ReadU32("kind", &kind);
  pre->ReadU64("generation", &ckpt.generation);
  if (version >= 1 && version < kVersion) {
    return util::Status::FailedPrecondition(
        "checkpoint format version " + std::to_string(version) +
        " is older than this build's version " + std::to_string(kVersion) +
        " and cannot be resumed; delete the snapshot (and its .a/.b "
        "buffers) and restart the run");
  }
  if (version != kVersion) {
    return util::Status::Corruption("unsupported checkpoint version " +
                                    std::to_string(version));
  }
  if (kind != static_cast<uint32_t>(CheckpointKind::kMine) &&
      kind != static_cast<uint32_t>(CheckpointKind::kSweep)) {
    return util::Status::Corruption("unknown checkpoint kind " +
                                    std::to_string(kind));
  }

  ckpt.kind = static_cast<CheckpointKind>(kind);
  RecordStream in(bytes.substr(kPreambleBytes), kNoun);
  uint32_t body_records = 0;
  if (ckpt.kind == CheckpointKind::kMine) {
    MineCheckpoint& m = ckpt.mine;
    REGCLUSTER_RETURN_IF_ERROR(DecodeLedgerRecords(&in, &m.ledger));
    auto c = in.Expect(kTagProgress, "progress");
    if (!c.ok()) return c.status();
    c->ReadI64("nodes_visited", &m.nodes_visited);
    c->ReadDouble("wall_seconds", &m.wall_seconds);
    c->ReadDouble("mine_seconds", &m.mine_seconds);
    c->ReadI64("peak_scratch_bytes", &m.peak_scratch_bytes);
    REGCLUSTER_RETURN_IF_ERROR(c->Done("progress"));
    body_records = static_cast<uint32_t>(3 + m.ledger.roots.size());
  } else {
    REGCLUSTER_RETURN_IF_ERROR(DecodeSweepBody(&in, &ckpt.sweep));
    body_records = static_cast<uint32_t>(2 + ckpt.sweep.report.runs.size());
  }
  auto end = in.Expect(kTagEnd, "end");
  if (!end.ok()) return end.status();
  uint32_t declared = 0;
  end->ReadU32("record count", &declared);
  REGCLUSTER_RETURN_IF_ERROR(end->Done("end"));
  if (declared != body_records) {
    return util::Status::Corruption("checkpoint record count mismatch");
  }
  if (!in.AtEnd()) {
    return util::Status::Corruption("trailing bytes after checkpoint footer");
  }
  return ckpt;
}

std::string CheckpointBufferPath(const std::string& base,
                                 uint64_t generation) {
  return base + (generation % 2 == 0 ? ".a" : ".b");
}

util::Status WriteCheckpointFile(const std::string& base,
                                 const Checkpoint& ckpt) {
  return util::AtomicWriteFile(CheckpointBufferPath(base, ckpt.generation),
                               EncodeCheckpoint(ckpt));
}

util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& base,
                                          uint64_t min_generation) {
  const std::string candidates[3] = {base, base + ".a", base + ".b"};
  bool any_file = false;
  util::Status first_error;
  std::optional<Checkpoint> best;
  for (const std::string& path : candidates) {
    auto bytes = util::ReadFileToString(path);
    if (!bytes.ok()) {
      // Missing buffers are normal (e.g. only one write ever happened);
      // real IO errors are remembered like decode failures.
      if (bytes.status().code() != util::StatusCode::kNotFound &&
          first_error.ok()) {
        first_error = bytes.status();
      }
      if (bytes.status().code() != util::StatusCode::kNotFound) {
        any_file = true;
      }
      continue;
    }
    any_file = true;
    auto ckpt = DecodeCheckpoint(*bytes);
    if (!ckpt.ok()) {
      if (first_error.ok()) first_error = ckpt.status();
      continue;
    }
    if (!best || ckpt->generation > best->generation) {
      best = std::move(ckpt).value();
    }
  }
  if (!best) {
    if (!any_file) {
      return util::Status::NotFound("no checkpoint found at " + base +
                                    " (tried it plus .a/.b buffers)");
    }
    return first_error;
  }
  if (best->generation < min_generation) {
    return util::Status::FailedPrecondition(
        "stale checkpoint generation " + std::to_string(best->generation) +
        " (need >= " + std::to_string(min_generation) + ")");
  }
  return std::move(*best);
}

// ---------------------------------------------------------------------------
// Hashes and validation.

uint64_t HashSweepGrid(const std::vector<core::MinerOptions>& points) {
  util::Fnv128 h;
  h.Mix64(static_cast<uint64_t>(points.size()));
  for (const core::MinerOptions& p : points) {
    h.MixInt(static_cast<int64_t>(
        core::RegClusterMiner::SemanticOptionsHash(p)));
  }
  return h.Digest().lo;
}

util::Status ValidateSweepCheckpoint(
    const SweepCheckpoint& ckpt, const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points) {
  if (ckpt.runs_total != static_cast<int64_t>(points.size())) {
    return util::Status::FailedPrecondition(
        "checkpoint sweep grid size differs: snapshot " +
        std::to_string(ckpt.runs_total) + " points, spec " +
        std::to_string(points.size()));
  }
  if (ckpt.grid_hash != HashSweepGrid(points)) {
    return util::Status::FailedPrecondition(
        "checkpoint was written for a different sweep grid "
        "(grid hash mismatch)");
  }
  return CheckMatrixIdentity(ckpt.num_genes, ckpt.num_conditions,
                             ckpt.matrix_hash, data, data.num_conditions());
}

// ---------------------------------------------------------------------------
// CheckpointWriter.

CheckpointWriter::CheckpointWriter(std::string base_path,
                                   uint64_t next_generation, bool synchronous)
    : base_path_(std::move(base_path)),
      synchronous_(synchronous),
      next_generation_(next_generation) {
  if (!synchronous_ && !base_path_.empty()) {
    thread_ = std::thread([this] { ThreadBody(); });
  }
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriter::Submit(Checkpoint ckpt) {
  if (base_path_.empty()) return;
  if (synchronous_) {
    (void)WriteNow(std::move(ckpt));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ = std::move(ckpt);  // latest-wins: replaces any unwritten one
  }
  cv_.notify_one();
}

util::Status CheckpointWriter::WriteNow(Checkpoint ckpt) {
  if (base_path_.empty()) return util::Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.reset();  // ours is newer than anything queued
  }
  std::lock_guard<std::mutex> io_lock(io_mutex_);
  return WriteLocked(std::move(ckpt));
}

util::Status CheckpointWriter::WriteLocked(Checkpoint ckpt) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ckpt.generation = next_generation_++;
  }
  util::WallTimer timer;
  std::string encoded = EncodeCheckpoint(ckpt);
  util::Status st = util::AtomicWriteFile(
      CheckpointBufferPath(base_path_, ckpt.generation), encoded);
  std::lock_guard<std::mutex> lock(mutex_);
  if (st.ok()) {
    ++stats_.writes;
    stats_.bytes += static_cast<int64_t>(encoded.size());
    stats_.last_write_ns =
        static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
  } else if (error_.ok()) {
    error_ = st;
  }
  return st;
}

void CheckpointWriter::ThreadBody() {
  for (;;) {
    std::optional<Checkpoint> work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || pending_.has_value(); });
      if (pending_.has_value()) {
        work = std::move(pending_);
        pending_.reset();
      } else if (stop_) {
        return;
      }
    }
    if (work) {
      std::lock_guard<std::mutex> io_lock(io_mutex_);
      (void)WriteLocked(std::move(*work));
    }
  }
}

util::Status CheckpointWriter::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

void CheckpointWriter::NoteResume() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.resumes;
}

CheckpointStats CheckpointWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Durable mine driver.

util::StatusOr<DurableMineResult> RunCheckpointedMine(
    const matrix::MatrixStore& data, const core::MinerOptions& options,
    const CheckpointConfig& config, const MineCheckpoint* resume) {
  util::WallTimer run_timer;
  if (!options.root_set.empty()) {
    return util::Status::InvalidArgument(
        "checkpointed mining covers the roots in order; root_set is not "
        "supported");
  }
  // Mutable run state, seeded from the snapshot when resuming.
  MineCheckpoint state;
  if (resume != nullptr) {
    REGCLUSTER_RETURN_IF_ERROR(CheckLedgerIdentity(
        resume->ledger, data, data.num_conditions(), options));
    state = *resume;
  } else {
    state.ledger = NewLedger(data, options);
  }
  RootLedger& ledger = state.ledger;

  CheckpointWriter writer(config.path, config.next_generation,
                          config.synchronous);
  if (resume != nullptr) writer.NoteResume();
  // The final snapshot takes the state; periodic ones copy it.
  const auto snapshot = [&state](bool final) {
    Checkpoint ckpt;
    ckpt.kind = CheckpointKind::kMine;
    if (final) {
      ckpt.mine = std::move(state);
    } else {
      ckpt.mine = state;
    }
    return ckpt;
  };

  std::shared_ptr<const core::SharedGammaModel> model = options.shared_model;
  DurableMineResult result;
  auto finish = [&](core::MineStatus status, util::StopReason reason,
                    const core::MineOutcome* last_chunk) {
    result.clusters = ledger.Output();
    // One logical run builds the model once; report it that way (chunks all
    // run on the shared model, contributing index_builds == 0).
    result.stats = ledger.SummedStats();
    result.stats.index_builds = 1;
    if (model != nullptr) {
      result.stats.rwave_build_seconds = model->rwave_build_seconds;
      result.stats.index_build_seconds = model->index_build_seconds;
    }
    result.stats.mine_seconds = state.mine_seconds;
    result.outcome.status = status;
    result.outcome.stop_reason = reason;
    result.outcome.nodes_visited = state.nodes_visited;
    result.outcome.roots_completed = static_cast<int>(ledger.roots.size());
    result.outcome.roots_total = data.num_conditions();
    result.outcome.wall_seconds = state.wall_seconds;
    result.outcome.peak_scratch_bytes = state.peak_scratch_bytes;
    result.outcome.simd_level = util::simd::CurrentLevel();
    if (last_chunk != nullptr) {
      result.outcome.simd_level = last_chunk->simd_level;
      result.outcome.model_cache_hits = last_chunk->model_cache_hits;
      result.outcome.model_cache_misses = last_chunk->model_cache_misses;
      result.outcome.model_cache_evictions = last_chunk->model_cache_evictions;
      result.outcome.model_cache_resident_bytes =
          last_chunk->model_cache_resident_bytes;
      result.outcome.model_bytes = last_chunk->model_bytes;
      result.outcome.mapped_bytes = last_chunk->mapped_bytes;
    }
  };

  // A snapshot that says "complete" short-circuits: replay the stored
  // result (the dominance pass, when requested, re-runs on the stored raw
  // clusters -- it is deterministic).
  if (resume != nullptr && ledger.complete()) {
    finish(core::MineStatus::kComplete, util::StopReason::kNone, nullptr);
    result.checkpoint = writer.stats();
    result.checkpoint_status = writer.last_error();
    return result;
  }

  // Build the gamma model once for all chunks (Mine() would otherwise
  // rebuild it per chunk).  Resident or out-of-core per the user's knobs.
  if (model == nullptr) {
    const core::GammaSpec spec{options.gamma_policy, options.gamma};
    if (!core::ValidateMinerOptions(options).ok()) {
      // Leave validation to Mine(): run one chunk without a model and
      // surface its error verbatim.
    } else if (options.model_cache_bytes >= 0) {
      model = core::SharedGammaModel::BuildOutOfCore(
          data, spec, std::max(options.min_conditions, 2),
          options.model_cache_bytes, options.model_cache_shards,
          options.num_threads);
    } else {
      model = core::SharedGammaModel::Build(
          data, spec, std::max(options.min_conditions, 2),
          options.num_threads);
    }
  }

  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  const int64_t user_nodes =
      options.max_nodes >= 0 ? options.max_nodes : kUnlimited;
  const int64_t user_clusters =
      options.max_clusters >= 0 ? options.max_clusters : kUnlimited;
  int64_t chunk_budget = std::max<int64_t>(config.initial_chunk_nodes, 1);
  core::MinerOptions chunk_base = SliceOptions(options);
  chunk_base.shared_model = model;
  chunk_base.capture_root_results = true;

  for (;;) {
    // The user's budgets span the logical run: charge what the ledger
    // already covers (a resume under a smaller budget has none left).
    const core::MinerStats done = ledger.SummedStats();
    const int64_t nodes_rem =
        user_nodes == kUnlimited
            ? kUnlimited
            : std::max<int64_t>(0, user_nodes - done.nodes_expanded);
    const int64_t clusters_rem =
        user_clusters == kUnlimited
            ? kUnlimited
            : std::max<int64_t>(0, user_clusters - done.clusters_emitted);
    const int64_t this_budget = std::min(chunk_budget, nodes_rem);

    core::MinerOptions chunk = chunk_base;
    chunk.max_nodes = this_budget == kUnlimited ? -1 : this_budget;
    chunk.max_clusters = clusters_rem == kUnlimited ? -1 : clusters_rem;
    // Resume is a root set: the roots the ledger does not cover yet.
    const auto first = static_cast<int>(ledger.roots.size());
    chunk.root_set.resize(static_cast<size_t>(data.num_conditions() - first));
    std::iota(chunk.root_set.begin(), chunk.root_set.end(), first);
    if (options.deadline_ms >= 0) {
      chunk.deadline_ms =
          std::max(0.0, options.deadline_ms - run_timer.ElapsedMillis());
    }

    util::WallTimer chunk_timer;
    core::RegClusterMiner miner(data, chunk);
    auto clusters = miner.Mine();
    if (!clusters.ok()) return clusters.status();
    const double chunk_ms = chunk_timer.ElapsedMillis();
    const core::MineOutcome& oc = miner.outcome();

    ledger.roots.insert(ledger.roots.end(), miner.root_results().begin(),
                        miner.root_results().end());
    state.nodes_visited += oc.nodes_visited;
    state.wall_seconds += oc.wall_seconds;
    state.mine_seconds += miner.stats().mine_seconds;
    state.peak_scratch_bytes =
        std::max(state.peak_scratch_bytes, oc.peak_scratch_bytes);

    if (oc.status == core::MineStatus::kComplete) {
      finish(core::MineStatus::kComplete, util::StopReason::kNone, &oc);
      result.checkpoint_status = writer.WriteNow(snapshot(true));
      result.checkpoint = writer.stats();
      return result;
    }

    const bool hard = util::IsHardStop(oc.stop_reason);
    // A soft stop is *final* when the chunk's budget already was the user's
    // whole remaining budget: the next root does not fit the logical run.
    const bool user_node_cut = oc.stop_reason ==
                                   util::StopReason::kNodeBudget &&
                               this_budget == nodes_rem;
    const bool user_cluster_cut =
        oc.stop_reason == util::StopReason::kClusterBudget;
    if (hard || user_node_cut || user_cluster_cut) {
      finish(core::MineStatus::kTruncated, oc.stop_reason, &oc);
      result.checkpoint_status = writer.WriteNow(snapshot(true));
      result.checkpoint = writer.stats();
      return result;
    }

    if (oc.roots_completed == 0) {
      // Driver-pace budget too small for even one root: grow and retry
      // (nothing new to snapshot).
      chunk_budget = chunk_budget * 2;
      continue;
    }

    // Periodic snapshot, off the hot path on the writer thread.
    writer.Submit(snapshot(false));

    // Adapt the chunk size to the requested cadence from the measured
    // throughput of the chunk that just ran.
    const double nodes_per_ms =
        static_cast<double>(miner.stats().nodes_expanded) /
        std::max(chunk_ms, 0.1);
    const double target =
        nodes_per_ms * static_cast<double>(std::max(config.every_ms, 1));
    chunk_budget = std::clamp<int64_t>(static_cast<int64_t>(target), 1024,
                                       int64_t{1} << 40);
  }
}

// ---------------------------------------------------------------------------
// Durable sweep driver.

util::StatusOr<DurableSweepResult> RunCheckpointedSweep(
    const matrix::MatrixStore& data,
    const std::vector<core::MinerOptions>& points,
    const core::SweepOptions& sweep_options, const CheckpointConfig& config,
    const SweepCheckpoint* resume) {
  util::WallTimer run_timer;
  if (points.empty()) {
    return util::Status::InvalidArgument("sweep has no points");
  }
  if (resume != nullptr) {
    REGCLUSTER_RETURN_IF_ERROR(
        ValidateSweepCheckpoint(*resume, data, points));
  }

  // Every snapshot carries this identity plus a copy of the report.
  SweepCheckpoint identity;
  identity.grid_hash = HashSweepGrid(points);
  identity.matrix_hash = HashMatrixContent(data);
  identity.num_genes = data.num_genes();
  identity.num_conditions = data.num_conditions();
  identity.runs_total = static_cast<int64_t>(points.size());

  CheckpointWriter writer(config.path, config.next_generation,
                          config.synchronous);
  if (resume != nullptr) writer.NoteResume();

  // The report starts as the snapshot's covered prefix.
  DurableSweepResult result;
  core::SweepReport& report = result.report;
  if (resume != nullptr) report = resume->report;
  report.runs.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    report.runs[i].options = points[i];
  }
  const double prior_wall_seconds = report.wall_seconds;

  // Snapshot of the points before `first_unfinished` (every point at -1).
  auto snapshot = [&](int64_t first_unfinished) {
    Checkpoint ckpt;
    ckpt.kind = CheckpointKind::kSweep;
    ckpt.sweep = identity;
    ckpt.sweep.first_unfinished = first_unfinished;
    ckpt.sweep.report = report;
    ckpt.sweep.report.wall_seconds =
        prior_wall_seconds + run_timer.ElapsedSeconds();
    if (first_unfinished >= 0) {
      ckpt.sweep.report.runs.resize(static_cast<size_t>(first_unfinished));
    }
    return ckpt;
  };

  auto finish = [&](core::MineStatus status, util::StopReason reason,
                    int first_unfinished) {
    report.status = status;
    report.stop_reason = reason;
    report.first_unfinished = first_unfinished;
    report.wall_seconds = prior_wall_seconds + run_timer.ElapsedSeconds();
    result.checkpoint_status = writer.WriteNow(snapshot(-1));
    result.checkpoint = writer.stats();
  };

  // A snapshot that says "complete" short-circuits to the stored report.
  if (resume != nullptr && resume->complete()) {
    result.checkpoint = writer.stats();
    result.checkpoint_status = writer.last_error();
    return result;
  }

  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  const int64_t user_nodes =
      sweep_options.max_nodes >= 0 ? sweep_options.max_nodes : kUnlimited;
  const int64_t user_clusters = sweep_options.max_clusters >= 0
                                    ? sweep_options.max_clusters
                                    : kUnlimited;
  int64_t consumed_nodes = 0;
  int64_t consumed_clusters = 0;
  for (const core::SweepRun& run : report.runs) {
    if (run.executed) {
      consumed_nodes += run.stats.nodes_expanded;
      consumed_clusters += run.stats.clusters_emitted;
    }
  }

  // Gamma groups: maximal consecutive points sharing (policy, exact gamma
  // bits).  One engine Run per group keeps model sharing where the grid
  // makes it possible and gives kill-invariant group boundaries.
  auto same_group = [](const core::MinerOptions& a,
                       const core::MinerOptions& b) {
    return core::SameGammaSpec({a.gamma_policy, a.gamma},
                               {b.gamma_policy, b.gamma});
  };

  size_t start =
      resume != nullptr ? static_cast<size_t>(resume->first_unfinished) : 0;
  while (start < points.size()) {
    size_t end = start + 1;
    while (end < points.size() && same_group(points[end], points[start])) {
      ++end;
    }

    core::SweepOptions group_opts = sweep_options;
    group_opts.max_nodes =
        user_nodes == kUnlimited
            ? -1
            : std::max<int64_t>(0, user_nodes - consumed_nodes);
    group_opts.max_clusters =
        user_clusters == kUnlimited
            ? -1
            : std::max<int64_t>(0, user_clusters - consumed_clusters);
    if (sweep_options.deadline_ms >= 0) {
      group_opts.deadline_ms = std::max(
          0.0, sweep_options.deadline_ms - run_timer.ElapsedMillis());
    }

    core::SweepEngine engine(data, group_opts);
    std::vector<core::MinerOptions> group_points(points.begin() + start,
                                                 points.begin() + end);
    auto group_report = engine.Run(group_points);
    if (!group_report.ok()) return group_report.status();

    for (size_t i = 0; i < group_points.size(); ++i) {
      core::SweepRun& dst = report.runs[start + i];
      core::SweepRun& src = group_report->runs[i];
      dst.status = src.status;
      dst.executed = src.executed;
      dst.used_shared_model = src.used_shared_model;
      dst.stats = src.stats;
      dst.outcome = src.outcome;
      dst.clusters = std::move(src.clusters);
      if (dst.executed) {
        ++report.runs_executed;
        report.nodes_total += dst.stats.nodes_expanded;
        report.clusters_total += static_cast<int64_t>(dst.clusters.size());
        consumed_nodes += dst.stats.nodes_expanded;
        consumed_clusters += dst.stats.clusters_emitted;
      }
    }
    report.index_builds += group_report->index_builds;
    report.shared_model_bytes += group_report->shared_model_bytes;

    if (group_report->status == core::MineStatus::kTruncated) {
      finish(core::MineStatus::kTruncated, group_report->stop_reason,
             static_cast<int>(start) + group_report->first_unfinished);
      return result;
    }

    start = end;
    if (start < points.size()) {
      // Group finished, more to go: snapshot at the boundary.
      writer.Submit(snapshot(static_cast<int64_t>(start)));
    }
  }
  finish(core::MineStatus::kComplete, util::StopReason::kNone, -1);
  return result;
}

// ---------------------------------------------------------------------------
// Deterministic-output sanitization.

void ZeroVolatileMineFields(core::MinerStats* stats,
                            core::MineOutcome* outcome) {
  if (stats != nullptr) {
    stats->rwave_build_seconds = 0.0;
    stats->index_build_seconds = 0.0;
    stats->mine_seconds = 0.0;
  }
  if (outcome != nullptr) {
    outcome->nodes_visited = 0;
    outcome->wall_seconds = 0.0;
    outcome->peak_scratch_bytes = 0;
    outcome->phase_a_seconds = 0.0;
    outcome->phase_b_seconds = 0.0;
    outcome->pool_steals = 0;
    outcome->pool_queue_high_water = 0;
    outcome->budget_polls = 0;
    outcome->model_cache_hits = 0;
    outcome->model_cache_misses = 0;
    outcome->model_cache_evictions = 0;
    outcome->model_cache_resident_bytes = 0;
    outcome->model_bytes = 0;
    outcome->mapped_bytes = 0;
  }
}

void ZeroVolatileSweepFields(core::SweepReport* report) {
  if (report == nullptr) return;
  report->wall_seconds = 0.0;
  for (core::SweepRun& run : report->runs) {
    ZeroVolatileMineFields(&run.stats, &run.outcome);
  }
}

}  // namespace io
}  // namespace regcluster
