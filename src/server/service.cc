#include "server/service.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/sweep.h"
#include "io/checkpoint.h"
#include "io/json_export.h"
#include "io/sweep_io.h"
#include "server/json_reader.h"

namespace regcluster {
namespace server {
namespace {

using util::Status;
using util::StatusCode;

/// A hostile sweep spec can cross-product itself into millions of points;
/// a service request is not the place for that (run a checkpointed CLI
/// sweep instead).
constexpr size_t kMaxSweepPoints = 1024;

ServiceResponse ErrorResponse(int http_status, const std::string& name,
                              const std::string& message) {
  ServiceResponse r;
  r.http_status = http_status;
  r.status_name = name;
  r.body = "{\"status\":\"error\",\"error_name\":\"" + name +
           "\",\"error\":\"" + io::JsonEscape(message) + "\"}\n";
  return r;
}

/// Request-option validation that needs the loaded matrix.  Runs before
/// any model is built or cached: a bad request must cost parsing plus one
/// matrix lookup, never a model build under the cache mutex -- and an
/// unbounded MinC must never size an allocation (the bitmap index clamps
/// its ceiling as defense in depth, but the service rejects outright).
Status ValidateMineOptions(const core::MinerOptions& opts,
                           const matrix::MatrixStore& data) {
  if (Status s = core::ValidateMinerOptions(opts); !s.ok()) return s;
  if (opts.min_conditions > data.num_conditions()) {
    return Status::InvalidArgument(
        "minc " + std::to_string(opts.min_conditions) +
        " exceeds the matrix's " + std::to_string(data.num_conditions()) +
        " conditions; no cluster can satisfy it");
  }
  return Status::OK();
}

/// Maps a util::Status from the cache / miner onto an HTTP status.
int HttpStatusOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInternal:
      return 500;
    default:
      return 400;  // the request named a matrix / options we reject
  }
}

}  // namespace

MiningService::MiningService(const Options& options)
    : options_(options),
      cache_([&] {
        ResourceCache::Options c;
        c.byte_budget = options.cache_bytes;
        c.build_threads = std::max(options.num_threads, 1);
        return c;
      }()) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<util::TaskPool>(options_.num_threads);
  }
  // Registration happens before any request thread exists, satisfying the
  // registry's register-before-sharing contract.
  requests_total_ =
      *registry_.AddCounter("regcluster_server_requests",
                            "Requests dispatched, every endpoint");
  shed_total_ = *registry_.AddCounter(
      "regcluster_server_shed", "Requests shed by admission control");
  cache_hits_total_ = *registry_.AddCounter(
      "regcluster_server_cache_hits",
      "Resource cache hits (matrix handles + gamma models)");
  active_gauge_ = *registry_.AddGauge("regcluster_server_active",
                                      "Mining sessions currently executing");
  queue_depth_gauge_ = *registry_.AddGauge(
      "regcluster_server_queue_depth", "Sessions waiting for admission");
}

MiningService::~MiningService() {
  // Sessions drain through Release(); the pool joins its workers after all
  // submitted phase-A tasks ran (TaskPool dtor waits).
  std::unique_lock<std::mutex> lock(admission_mu_);
  admission_cv_.wait(lock, [this] { return active_ == 0 && queued_ == 0; });
}

ServiceResponse MiningService::HandleHttp(const std::string& method,
                                          const std::string& target,
                                          const std::string& body) {
  // Strip a query string: /metrics?foo stays /metrics.
  std::string path = target.substr(0, target.find('?'));
  if (method == "GET" && path == "/healthz") return HandleHealth();
  if (method == "GET" && path == "/metrics") return HandleMetrics();
  if (method == "POST" &&
      (path == "/mine" || path == "/sweep" || path == "/append")) {
    requests_total_->Increment();
    auto parsed = ParseJson(body);
    if (!parsed.ok()) {
      return ErrorResponse(400, "bad_json", parsed.status().message());
    }
    if (path == "/mine") return HandleMine(*parsed);
    if (path == "/sweep") return HandleSweep(*parsed);
    return HandleAppend(*parsed);
  }
  return ErrorResponse(404, "unknown_endpoint",
                       method + " " + path + " is not served here");
}

ServiceResponse MiningService::HandleFrame(const std::string& payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) {
    return ErrorResponse(400, "bad_json", parsed.status().message());
  }
  const JsonValue* op = parsed->Find("op");
  if (op == nullptr || !op->is_string()) {
    return ErrorResponse(400, "bad_request",
                         "frame needs a string \"op\" field");
  }
  // The remaining fields form the request body; drop "op" so the strict
  // field check does not see it.
  JsonValue body = *parsed;
  body.members.erase(
      std::remove_if(body.members.begin(), body.members.end(),
                     [](const auto& m) { return m.first == "op"; }),
      body.members.end());
  if (op->string_value == "health") return HandleHealth();
  if (op->string_value == "metrics") {
    requests_total_->Increment();
    ServiceResponse r;
    std::ostringstream out;
    if (Status s = registry_.WriteJson(out); !s.ok()) {
      return ErrorResponse(500, "metrics_error", s.message());
    }
    r.body = out.str();
    return r;
  }
  if (op->string_value == "mine") {
    requests_total_->Increment();
    return HandleMine(body);
  }
  if (op->string_value == "sweep") {
    requests_total_->Increment();
    return HandleSweep(body);
  }
  if (op->string_value == "append") {
    requests_total_->Increment();
    return HandleAppend(body);
  }
  return ErrorResponse(400, "unknown_op",
                       "op \"" + op->string_value + "\" is not served here");
}

ServiceResponse MiningService::HandleHealth() {
  requests_total_->Increment();
  ServiceResponse r;
  r.body = "{\"status\":\"ok\"}\n";
  return r;
}

ServiceResponse MiningService::HandleMetrics() {
  requests_total_->Increment();
  ServiceResponse r;
  std::ostringstream out;
  if (Status s = registry_.WritePrometheus(out); !s.ok()) {
    return ErrorResponse(500, "metrics_error", s.message());
  }
  r.content_type = "text/plain; version=0.0.4";
  r.body = out.str();
  return r;
}

ServiceResponse MiningService::HandleMine(const JsonValue& body) {
  auto request = ParseMineRequest(body, options_.defaults);
  if (!request.ok()) {
    return ErrorResponse(400, "bad_request", request.status().message());
  }
  ServiceResponse shed;
  if (!Admit(&shed)) return shed;
  if (options_.session_hook) options_.session_hook();
  ServiceResponse r = ExecuteMine(*request);
  Release();
  return r;
}

ServiceResponse MiningService::HandleAppend(const JsonValue& body) {
  auto request = ParseAppendRequest(body);
  if (!request.ok()) {
    return ErrorResponse(400, "bad_request", request.status().message());
  }
  // Only the binary format appends in place; a text matrix has no atomic
  // widen (convert it once with `regcluster convert`).
  auto is_bin = matrix::IsBinaryMatrixFile(request->matrix_path);
  if (!is_bin.ok()) {
    return ErrorResponse(HttpStatusOf(is_bin.status()), "matrix_error",
                         is_bin.status().message());
  }
  if (!*is_bin) {
    return ErrorResponse(400, "append_error",
                         request->matrix_path +
                             " is not a binary matrix; append needs the "
                             "binary format (regcluster convert)");
  }
  auto widened = matrix::AppendConditionsToBinaryMatrix(
      request->matrix_path, request->names, request->columns);
  if (!widened.ok()) {
    return ErrorResponse(HttpStatusOf(widened.status()), "append_error",
                         widened.status().message());
  }
  // Invalidate *after* the rename lands so no request can re-cache the old
  // file between the drop and the swap.  (A load racing the rewrite itself
  // still sees a complete old or complete new file, never a torn one.)
  const int invalidated = cache_.InvalidateAppend(request->matrix_path);
  ServiceResponse r;
  r.body = "{\"status\":\"ok\",\"num_conditions\":" +
           std::to_string(*widened) +
           ",\"invalidated\":" + std::to_string(invalidated) + "}\n";
  return r;
}

ServiceResponse MiningService::HandleSweep(const JsonValue& body) {
  auto request = ParseSweepRequest(body, options_.defaults);
  if (!request.ok()) {
    return ErrorResponse(400, "bad_request", request.status().message());
  }
  ServiceResponse shed;
  if (!Admit(&shed)) return shed;
  if (options_.session_hook) options_.session_hook();
  ServiceResponse r = ExecuteSweep(*request);
  Release();
  return r;
}

bool MiningService::Admit(ServiceResponse* shed) {
  // Limit 1 -- memory: the cache already holds more than the global budget
  // allows, so taking on work that loads more is how a daemon OOMs.  Shed
  // with a hint; eviction and request completion make a retry meaningful.
  if (cache_.stats().resident_bytes > options_.memory_budget_bytes) {
    shed_total_->Increment();
    *shed = ErrorResponse(503, "shed_memory",
                          "resource cache over the global memory budget");
    shed->body = "{\"status\":\"shed\",\"error_name\":\"shed_memory\","
                 "\"retry_after_s\":" +
                 std::to_string(options_.retry_after_s) + "}\n";
    shed->retry_after_s = options_.retry_after_s;
    return false;
  }
  // Limit 2 -- concurrency: max_active sessions mine, max_queued wait.
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (active_ >= options_.max_active) {
    if (queued_ >= options_.max_queued) {
      shed_total_->Increment();
      *shed = ErrorResponse(503, "shed_queue", "admission queue full");
      shed->body = "{\"status\":\"shed\",\"error_name\":\"shed_queue\","
                   "\"retry_after_s\":" +
                   std::to_string(options_.retry_after_s) + "}\n";
      shed->retry_after_s = options_.retry_after_s;
      return false;
    }
    ++queued_;
    queue_depth_gauge_->Set(queued_);
    admission_cv_.wait(lock,
                       [this] { return active_ < options_.max_active; });
    --queued_;
    queue_depth_gauge_->Set(queued_);
  }
  ++active_;
  active_gauge_->Set(active_);
  return true;
}

void MiningService::Release() {
  std::lock_guard<std::mutex> lock(admission_mu_);
  --active_;
  active_gauge_->Set(active_);
  admission_cv_.notify_all();
}

ServiceResponse MiningService::ExecuteMine(const MineRequest& request) {
  bool matrix_hit = false;
  auto handle = cache_.GetMatrix(request.matrix_path, &matrix_hit);
  if (!handle.ok()) {
    return ErrorResponse(HttpStatusOf(handle.status()), "matrix_error",
                         handle.status().message());
  }
  if (Status st = ValidateMineOptions(request.options, *(*handle)->store);
      !st.ok()) {
    return ErrorResponse(400, "bad_request", st.message());
  }
  core::GammaSpec spec;
  spec.policy = request.options.gamma_policy;
  spec.gamma = request.options.gamma;
  bool model_hit = false;
  auto model = cache_.GetModel(*handle, spec, request.options.min_conditions,
                               &model_hit);
  if (!model.ok()) {
    return ErrorResponse(HttpStatusOf(model.status()), "mine_error",
                         model.status().message());
  }
  cache_hits_total_->Add((matrix_hit ? 1 : 0) + (model_hit ? 1 : 0));

  // One session: staged run on the shared pool, per-run drain, canonical
  // finalize.  options.num_threads stays 1 -- it would describe a pool the
  // session does not own (the sweep engine does the same).
  core::MinerOptions opts = request.options;
  opts.num_threads = 1;
  opts.shared_model = *model;
  core::RegClusterMiner miner(*(*handle)->store, opts);
  if (Status st = miner.Prepare(); !st.ok()) {
    return ErrorResponse(HttpStatusOf(st), "mine_error", st.message());
  }
  if (pool_ != nullptr) {
    miner.SubmitParallelWork(pool_.get());
    miner.WaitParallelWork();
  }
  auto clusters = miner.Finalize();
  if (!clusters.ok()) {
    return ErrorResponse(500, "mine_error", clusters.status().message());
  }

  core::MinerStats stats = miner.stats();
  core::MineOutcome outcome = miner.outcome();
  if (request.deterministic_output) {
    io::ZeroVolatileMineFields(&stats, &outcome);
  }
  std::ostringstream doc;
  if (Status st = io::WriteClustersJson(*clusters, (*handle)->store.get(),
                                        &outcome, &stats, doc);
      !st.ok()) {
    return ErrorResponse(500, "mine_error", st.message());
  }
  ServiceResponse r;
  r.body = doc.str();
  return r;
}

ServiceResponse MiningService::ExecuteSweep(const MineRequest& request) {
  bool matrix_hit = false;
  auto handle = cache_.GetMatrix(request.matrix_path, &matrix_hit);
  if (!handle.ok()) {
    return ErrorResponse(HttpStatusOf(handle.status()), "matrix_error",
                         handle.status().message());
  }
  core::MinerOptions base = request.options;
  base.num_threads = 1;
  auto points = io::ParseSweepSpec(request.sweep_spec, base, kMaxSweepPoints);
  if (!points.ok()) {
    return ErrorResponse(400, "bad_request", points.status().message());
  }

  // One model per distinct (policy, gamma), built with the group's largest
  // MinC so every point of the group reuses it (and later requests reuse
  // it through the cache).  First-appearance order keeps the cache
  // counters a pure function of the request stream.  Points that fail the
  // request-option screen never join a group (a garbage spec or unbounded
  // MinC must not build or pollute a cached model, cf. SweepEngine); they
  // run without a shared model and Prepare() records the rejection
  // per-run.
  core::SweepReport report;
  report.runs.resize(points->size());
  std::vector<std::pair<core::GammaSpec, int>> groups;
  std::vector<int> group_of(points->size(), -1);
  for (size_t i = 0; i < points->size(); ++i) {
    const core::MinerOptions& p = (*points)[i];
    if (!ValidateMineOptions(p, *(*handle)->store).ok()) continue;
    const core::GammaSpec spec{p.gamma_policy, p.gamma};
    size_t g = 0;
    while (g < groups.size() && !core::SameGammaSpec(groups[g].first, spec)) {
      ++g;
    }
    if (g == groups.size()) groups.emplace_back(spec, p.min_conditions);
    groups[g].second = std::max(groups[g].second, p.min_conditions);
    group_of[i] = static_cast<int>(g);
  }
  std::vector<std::shared_ptr<const core::SharedGammaModel>> models;
  models.reserve(groups.size());
  int64_t hits = matrix_hit ? 1 : 0;
  for (const auto& [spec, ceiling] : groups) {
    bool model_hit = false;
    auto model = cache_.GetModel(*handle, spec, ceiling, &model_hit);
    if (!model.ok()) {
      return ErrorResponse(HttpStatusOf(model.status()), "mine_error",
                           model.status().message());
    }
    hits += model_hit ? 1 : 0;
    models.push_back(*model);
  }
  cache_hits_total_->Add(hits);

  for (size_t i = 0; i < points->size(); ++i) {
    core::SweepRun& run = report.runs[i];
    run.options = (*points)[i];
    if (group_of[i] >= 0) {
      run.options.shared_model = models[static_cast<size_t>(group_of[i])];
      run.used_shared_model = true;
    }
    core::RegClusterMiner miner(*(*handle)->store, run.options);
    run.status = miner.Prepare();
    if (!run.status.ok()) continue;
    if (pool_ != nullptr) {
      miner.SubmitParallelWork(pool_.get());
      miner.WaitParallelWork();
    }
    auto clusters = miner.Finalize();
    if (!clusters.ok()) {
      run.status = clusters.status();
      continue;
    }
    run.executed = true;
    run.clusters = *std::move(clusters);
    run.stats = miner.stats();
    run.outcome = miner.outcome();
    ++report.runs_executed;
    report.nodes_total += run.stats.nodes_expanded;
    report.clusters_total += static_cast<int64_t>(run.clusters.size());
  }
  report.first_unfinished = -1;
  if (request.deterministic_output) {
    io::ZeroVolatileSweepFields(&report);
  }
  std::ostringstream doc;
  if (Status st = io::WriteSweepJson(report, doc); !st.ok()) {
    return ErrorResponse(500, "mine_error", st.message());
  }
  ServiceResponse r;
  r.body = doc.str();
  return r;
}

}  // namespace server
}  // namespace regcluster
