// perfbench_harness: the in-process half of the regcluster benchmark.
//
// perfbench/run.py measures the end-to-end numbers through the real
// surfaces (`regcluster mine` processes and a `regcluster serve` daemon).
// This tool does the work that needs the libraries themselves:
//
//   info              provenance: resolved SIMD level, compiler, build type
//   gen-timecourse    a steady-state time course and its one-array appends
//   ref-serve         reference daemon bodies from solo in-process mines
//   ref-timecourse    reference archives from from-scratch mines per width
//   trace-mine        traced replay of a CLI mine workload
//   trace-serve       traced replay of a daemon request sequence
//   trace-timecourse  traced replay of an append chain
//
// The trace-* commands repeat a workload's operations through the public
// library calls the CLI and the daemon make, with a span around each call
// (names follow the ROADMAP span vocabulary: matrix.load, matrix.hash,
// core.model_build, core.phase_a, core.phase_b, core.dominance,
// io.archive_write, io.state_load, io.state_write, server.handle, ...).
// Spans live in memory and are written as Chrome trace-event JSON when the
// run ends.  Every operation's output bytes are compared with a reference;
// a mismatch counts as a failed operation.  Each command prints one JSON
// object on its last stdout line.
//
// Flags are --name=value.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bicluster.h"
#include "core/miner.h"
#include "core/threshold.h"
#include "io/checkpoint.h"
#include "io/cluster_io.h"
#include "io/incremental.h"
#include "io/json_export.h"
#include "matrix/expression_matrix.h"
#include "matrix/matrix_io.h"
#include "matrix/store.h"
#include "server/json_reader.h"
#include "server/request.h"
#include "server/resource_cache.h"
#include "server/service.h"
#include "synth/generator.h"
#include "util/prng.h"
#include "util/simd/dispatch.h"
#include "util/status.h"
#include "util/task_pool.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace regcluster {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small utilities: flags, files, clocks, statistics, JSON output.
// ---------------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  int Int(const std::string& key, int def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::stoi(it->second);
  }
  double Double(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(util::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(what + ": " + v.status().ToString());
  return *std::move(v);
}

void Check(const util::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

/// Flat JSON object writer: numbers keep all their digits.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + io::JsonEscape(v) + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + std::string("\"") + key + "\":" + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the tracer's span list; -1 for an operation root
  int64_t op;  // per-operation id shared by the operation's spans
};

/// In-memory span recorder.  Disabled, it records nothing, so the same code
/// path gives the untraced timings the tracing overhead is measured against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int parent, int64_t op) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Duration in seconds of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  /// Per operation root: share of its wall time covered by direct children.
  std::vector<double> CoveredFractions() const {
    std::vector<int64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0 && s.end_ns > s.start_ns) {
        out.push_back(static_cast<double>(covered[i]) /
                      static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Chrome trace-event JSON (one complete "X" event per span; tid = op).
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"op\":%lld}}",
                    i == 0 ? "" : ",\n", s.name, static_cast<long long>(s.op),
                    (s.start_ns - t0) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                    i, s.parent, static_cast<long long>(s.op));
      out << buf;
    }
    out << "]}\n";
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer or a disabled one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Miner options and deterministic counters.
// ---------------------------------------------------------------------------

core::MinerOptions MineOptionsFromFlags(const Flags& f) {
  core::MinerOptions o;
  o.min_genes = f.Int("ming", 20);
  o.min_conditions = f.Int("minc", 6);
  o.gamma = f.Double("gamma", 0.05);
  o.epsilon = f.Double("epsilon", 1.0);
  o.num_threads = f.Int("threads", 1);
  o.remove_dominated = true;  // the CLI's default
  if (!core::ParseGammaPolicy(f.Str("gamma-policy", "range"),
                              &o.gamma_policy)) {
    Die("unknown --gamma-policy");
  }
  return o;
}

/// The MinerStats counters that are a pure function of data + options.
std::vector<int64_t> Counters(const core::MinerStats& s) {
  return {s.nodes_expanded,         s.extensions_tested,
          s.pruned_min_genes,       s.pruned_p_majority,
          s.pruned_duplicate,       s.pruned_coherence,
          s.genes_dropped_min_conds, s.clusters_emitted,
          s.index_word_ops,         s.coherence_divide_calls,
          s.coherence_scores,       s.dedup_probes};
}

void AddCounters(const core::MinerStats& s, std::vector<int64_t>* sum) {
  const std::vector<int64_t> c = Counters(s);
  if (sum->empty()) sum->assign(c.size(), 0);
  for (size_t i = 0; i < c.size(); ++i) (*sum)[i] += c[i];
}

/// Emits the per-layer counters and yields; `c` is indexed as Counters().
void EmitCounters(const std::vector<int64_t>& c, JsonOut* out) {
  const std::vector<int64_t> zero(12, 0);
  const std::vector<int64_t>& v = c.empty() ? zero : c;
  out->Int("core.nodes_expanded", v[0]);
  out->Int("core.extensions_tested", v[1]);
  out->Int("core.pruned_min_genes", v[2]);
  out->Int("core.pruned_coherence", v[5]);
  out->Int("core.index_word_ops", v[8]);
  out->Int("core.coherence_divide_calls", v[9]);
  out->Int("core.coherence_scores", v[10]);
  const double divides = static_cast<double>(v[9]);
  const double tested = static_cast<double>(v[1]);
  out->Num("core.score_yield", divides > 0 ? (divides - v[5]) / divides : 0.0);
  out->Num("core.filter_yield", tested > 0 ? (tested - v[2]) / tested : 0.0);
  std::string all = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    all += (i ? "," : "") + std::to_string(v[i]);
  }
  out->Raw("counters", all + "]");
}

// ---------------------------------------------------------------------------
// info
// ---------------------------------------------------------------------------

int CmdInfo() {
  JsonOut out;
  out.Str("simd", util::simd::LevelName(util::simd::CurrentLevel()));
  out.Str("compiler", PERFBENCH_COMPILER);
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Int("hardware_threads",
          static_cast<int64_t>(std::thread::hardware_concurrency()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

std::string ColPath(const std::string& dir, int k) {
  char name[64];
  std::snprintf(name, sizeof(name), "/col_%03d.tsv", k);
  return dir + name;
}

// ---------------------------------------------------------------------------
// gen-timecourse: a steady-state time course.
//
// Every gene rests at a level L_g drawn from the background range; baseline
// arrays hold L_g within +-`noise`, so with an absolute gamma above
// 2*`noise` no two baseline arrays regulate each other.  The perturbation
// arrays are the paper's synthetic design (uniform background with
// implanted shifting-and-scaling clusters, src/synth), drawn independently
// of the resting levels.  Appends repeat the design one array at a time: a
// perturbation array (uniform background) every `period`-th append,
// baseline otherwise.
// ---------------------------------------------------------------------------

int CmdGenTimecourse(const Flags& f) {
  const std::string dir = f.Str("dir");
  const int baseline = f.Int("baseline", 30);
  const int appends = f.Int("appends", 32);
  const int period = f.Int("period", 8);
  const double noise = 0.4;
  const uint64_t seed = static_cast<uint64_t>(f.Int("seed", 1));

  synth::SyntheticConfig cfg;
  cfg.num_genes = f.Int("genes", 3000);
  cfg.num_conditions = f.Int("perturb", 10);
  cfg.num_clusters = f.Int("clusters", 10);
  cfg.avg_cluster_genes_fraction = f.Double("gene-fraction", 0.015);
  cfg.seed = seed;
  const synth::SyntheticDataset perturbation =
      Check(synth::GenerateSynthetic(cfg), "synthetic block");
  const int genes = cfg.num_genes;
  util::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<double> level(static_cast<size_t>(genes));
  for (double& l : level) l = prng.Uniform(cfg.background_lo, cfg.background_hi);

  const int base_conds = baseline + cfg.num_conditions;
  matrix::ExpressionMatrix base(genes, base_conds);
  for (int g = 0; g < genes; ++g) {
    for (int c = 0; c < baseline; ++c) {
      base(g, c) = level[static_cast<size_t>(g)] + prng.Uniform(-noise, noise);
    }
    for (int c = 0; c < cfg.num_conditions; ++c) {
      base(g, baseline + c) = perturbation.data(g, c);
    }
  }
  fs::create_directories(dir);
  Check(matrix::WriteBinaryMatrix(base, dir + "/base.bin"), "write base");
  int perturbation_appends = 0;
  for (int k = 1; k <= appends; ++k) {
    const bool perturb = k % period == 0;
    perturbation_appends += perturb ? 1 : 0;
    std::ostringstream text;
    text << "gene\tt" << (base_conds + k - 1) << "\n";
    for (int g = 0; g < genes; ++g) {
      const double v =
          perturb ? prng.Uniform(cfg.background_lo, cfg.background_hi)
                  : level[static_cast<size_t>(g)] + prng.Uniform(-noise, noise);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      text << base.gene_name(g) << "\t" << buf << "\n";
    }
    std::ofstream(ColPath(dir, k)) << text.str();
  }
  JsonOut out;
  out.Int("genes", genes);
  out.Int("base_conditions", base_conds);
  out.Int("appends", appends);
  out.Int("perturbation_appends", perturbation_appends);
  std::printf("%s\n", out.str().c_str());
  return 0;
}


/// Appends the one-column TSV at `path` to `m`, as `mine --append` does.
util::Status AppendColumnFile(const std::string& path,
                              matrix::ExpressionMatrix* m) {
  auto cols = matrix::LoadMatrix(path);
  if (!cols.ok()) return cols.status();
  if (cols->num_genes() != m->num_genes()) {
    return util::Status::InvalidArgument("append column gene count mismatch");
  }
  std::vector<std::vector<double>> columns(
      static_cast<size_t>(cols->num_conditions()));
  for (int c = 0; c < cols->num_conditions(); ++c) {
    columns[static_cast<size_t>(c)].resize(static_cast<size_t>(cols->num_genes()));
    for (int g = 0; g < cols->num_genes(); ++g) {
      columns[static_cast<size_t>(c)][static_cast<size_t>(g)] = (*cols)(g, c);
    }
  }
  return m->AppendConditions(cols->condition_names(), columns);
}

/// Runs `work(i)` for i in [0, n) on up to `threads` threads.
void ParallelFor(int n, int threads, const std::function<void(int)>& work) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, std::min(threads, n)); ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) work(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// ref-timecourse: archive of a from-scratch mine at every chain width.
// ---------------------------------------------------------------------------

int CmdRefTimecourse(const Flags& f) {
  const std::string dir = f.Str("dir");
  const int appends = f.Int("appends", 32);
  const int jobs = f.Int("jobs", 4);
  core::MinerOptions opts = MineOptionsFromFlags(f);
  opts.num_threads = 1;
  // Widen once, keeping every width; mine the widest (slowest) first.
  std::vector<matrix::ExpressionMatrix> widths;
  widths.push_back(Check(matrix::ReadBinaryMatrix(dir + "/base.bin"), "read base"));
  for (int k = 1; k <= appends; ++k) {
    widths.push_back(widths.back());
    Check(AppendColumnFile(ColPath(dir, k), &widths.back()), "append column");
  }
  ParallelFor(appends + 1, jobs, [&](int i) {
    const int k = appends - i;
    core::RegClusterMiner miner(widths[static_cast<size_t>(k)], opts);
    auto clusters = Check(miner.Mine(), "reference mine");
    char name[64];
    std::snprintf(name, sizeof(name), "/ref_%03d.txt", k);
    Check(io::SaveClusters(clusters, dir + name), "write reference");
  });
  std::printf("{\"references\":%d}\n", appends + 1);
  return 0;
}

// ---------------------------------------------------------------------------
// ref-serve: the body a daemon must answer for each distinct request.
//
// Input lines: key <TAB> matrix path <TAB> comma-separated append-column
// files ("-" for none) <TAB> request body JSON.  The body is parsed with the
// daemon's own request schema over the daemon's defaults, mined solo on a
// shared model (as the service does) and rendered like the service.
// ---------------------------------------------------------------------------

core::MinerOptions ServeDefaults() {
  // `regcluster serve` flag defaults (tools/regcluster_cli.cc CmdServe).
  core::MinerOptions d;
  d.min_genes = 20;
  d.min_conditions = 6;
  d.gamma = 0.05;
  d.epsilon = 1.0;
  d.collect_stats = true;
  return d;
}

struct ServeKey {
  std::string key;
  std::string matrix_path;
  std::vector<std::string> append_files;
  std::string body;
};

std::vector<ServeKey> ReadServeKeys(const std::string& path) {
  std::vector<ServeKey> keys;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, '\t');
    if (parts.size() != 4) Die("bad key line: " + line);
    ServeKey k{parts[0], parts[1], {}, parts[3]};
    if (parts[2] != "-") k.append_files = Split(parts[2], ',');
    keys.push_back(std::move(k));
  }
  return keys;
}

matrix::ExpressionMatrix LoadKeyMatrix(const ServeKey& k) {
  const bool bin = Check(matrix::IsBinaryMatrixFile(k.matrix_path), "sniff");
  matrix::ExpressionMatrix m =
      bin ? Check(matrix::ReadBinaryMatrix(k.matrix_path), "read matrix")
          : Check(matrix::LoadMatrix(k.matrix_path), "load matrix");
  for (const std::string& col : k.append_files) {
    Check(AppendColumnFile(col, &m), "append column");
  }
  return m;
}

struct SoloResult {
  std::string body;
  core::MinerStats stats;
};

/// One mine exactly as MiningService::ExecuteMine runs it, on a private
/// model, rendered with the service's deterministic report.  With an
/// enabled tracer each stage is a span under `parent`; `profile` turns on
/// the miner's phase counters.
SoloResult SoloServiceMine(const matrix::MatrixStore& store,
                           const std::string& body, util::TaskPool* pool,
                           bool profile, Tracer* tracer, int parent,
                           int64_t op) {
  const server::JsonValue json =
      Check(server::ParseJson(body), "request json");
  server::MineRequest request =
      Check(server::ParseMineRequest(json, ServeDefaults()), "request");
  core::GammaSpec spec;
  spec.policy = request.options.gamma_policy;
  spec.gamma = request.options.gamma;
  core::MinerOptions opts = request.options;
  opts.num_threads = 1;
  opts.profile_phases = profile;
  {
    ScopedSpan s(tracer, "core.model_build", parent, op);
    opts.shared_model = core::SharedGammaModel::Build(
        store, spec, request.options.min_conditions);
  }
  core::RegClusterMiner miner(store, opts);
  std::vector<core::RegCluster> clusters;
  {
    ScopedSpan s(tracer, "core.phase_a", parent, op);
    Check(miner.Prepare(), "prepare");
    if (pool != nullptr) {
      miner.SubmitParallelWork(pool);
      miner.WaitParallelWork();
    }
  }
  {
    ScopedSpan s(tracer, "core.phase_b", parent, op);
    clusters = Check(miner.Finalize(), "finalize");
  }
  SoloResult r;
  r.stats = miner.stats();
  {
    ScopedSpan s(tracer, "server.render", parent, op);
    core::MinerStats stats = miner.stats();
    core::MineOutcome outcome = miner.outcome();
    if (request.deterministic_output) {
      io::ZeroVolatileMineFields(&stats, &outcome);
    }
    std::ostringstream doc;
    Check(io::WriteClustersJson(clusters, &store, &outcome, &stats, doc),
          "render");
    r.body = doc.str();
  }
  return r;
}

int CmdRefServe(const Flags& f) {
  const std::vector<ServeKey> keys = ReadServeKeys(f.Str("keys"));
  const std::string out_dir = f.Str("out-dir");
  fs::create_directories(out_dir);
  Tracer off(false);
  ParallelFor(static_cast<int>(keys.size()), f.Int("jobs", 4), [&](int i) {
    const ServeKey& k = keys[static_cast<size_t>(i)];
    matrix::ExpressionMatrix m = LoadKeyMatrix(k);
    SoloResult r = SoloServiceMine(m, k.body, nullptr, false, &off, -1, 0);
    std::ofstream(out_dir + "/" + k.key + ".json", std::ios::binary) << r.body;
  });
  std::printf("{\"references\":%zu}\n", keys.size());
  return 0;
}

// ---------------------------------------------------------------------------
// trace-mine: one operation = what `regcluster mine` does for a matrix file.
// ---------------------------------------------------------------------------

struct MineOpResult {
  double wall_s = 0.0;
  double load_bytes = 0.0;
  bool ok = false;
  core::MinerStats stats;
};

MineOpResult MineOnce(const std::string& path, bool bin,
                      core::MinerOptions opts, util::TaskPool* pool,
                      const std::string& out_path, const std::string& reference,
                      Tracer* tracer, int64_t op) {
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "mine", -1, op);
  const int p = root.id();
  matrix::ExpressionMatrix resident;
  std::optional<matrix::MappedMatrix> mapped;
  {
    ScopedSpan s(tracer, "matrix.load", p, op);
    if (bin) {
      mapped.emplace(Check(matrix::MappedMatrix::Open(path), "open"));
      if (mapped->HasMissingValues()) Die("missing values in " + path);
    } else {
      resident = Check(matrix::LoadMatrix(path), "load");
      if (resident.HasMissingValues()) Die("missing values in " + path);
    }
  }
  const matrix::MatrixStore& store =
      mapped ? static_cast<const matrix::MatrixStore&>(*mapped)
             : static_cast<const matrix::MatrixStore&>(resident);
  const bool dominance = opts.remove_dominated;
  opts.remove_dominated = false;
  const core::GammaSpec spec{opts.gamma_policy, opts.gamma};
  {
    ScopedSpan s(tracer, "core.model_build", p, op);
    opts.shared_model = core::SharedGammaModel::Build(
        store, spec, opts.min_conditions, opts.num_threads);
  }
  core::RegClusterMiner miner(store, opts);
  std::vector<core::RegCluster> clusters;
  {
    ScopedSpan s(tracer, "core.phase_a", p, op);
    Check(miner.Prepare(), "prepare");
    if (pool != nullptr) {
      miner.SubmitParallelWork(pool);
      miner.WaitParallelWork();
    }
  }
  {
    ScopedSpan s(tracer, "core.phase_b", p, op);
    clusters = Check(miner.Finalize(), "finalize");
  }
  if (dominance) {
    ScopedSpan s(tracer, "core.dominance", p, op);
    clusters = core::RemoveDominated(std::move(clusters));
  }
  {
    ScopedSpan s(tracer, "io.archive_write", p, op);
    Check(io::SaveClusters(clusters, out_path), "write archive");
  }
  MineOpResult r;
  r.wall_s = (NowNs() - t0) * 1e-9;
  r.load_bytes = static_cast<double>(fs::file_size(path));
  r.ok = ReadFile(out_path) == reference;
  r.stats = miner.stats();
  // Build timings live on the shared model, not in the run's stats.
  r.stats.rwave_build_seconds = opts.shared_model->rwave_build_seconds;
  r.stats.index_build_seconds = opts.shared_model->index_build_seconds;
  return r;
}

/// Replays `regcluster mine` over a rotation of matrices (--matrices and
/// --references, comma-separated, same order).
int CmdTraceMine(const Flags& f) {
  const double seconds = f.Double("seconds", 10.0);
  const bool bin = f.Str("format", "text") == "bin";
  const std::vector<std::string> paths = Split(f.Str("matrices"), ',');
  std::vector<std::string> references;
  for (const std::string& r : Split(f.Str("references"), ',')) {
    references.push_back(ReadFile(r));
  }
  if (references.size() != paths.size()) Die("--matrices/--references differ");
  const size_t n = paths.size();
  const std::string out_path = f.Str("out-dir") + "/trace_op.txt";
  const core::MinerOptions base = MineOptionsFromFlags(f);
  Tracer tracer(true);
  std::unique_ptr<util::TaskPool> pool;
  if (base.num_threads > 1) {
    pool = std::make_unique<util::TaskPool>(base.num_threads);
  }

  int attempted = 0;
  int failed = 0;
  // Every operation on matrix i must repeat its serial run's counters.
  std::vector<std::vector<int64_t>> counters(n);
  auto account = [&](size_t i, const MineOpResult& r) {
    ++attempted;
    const std::vector<int64_t> c = Counters(r.stats);
    if (counters[i].empty()) counters[i] = c;
    if (!r.ok || c != counters[i]) ++failed;
  };

  // A serial run of the first matrix: the speedup base, and the counters
  // every later operation on it must repeat at --threads=4.
  core::MinerOptions serial = base;
  serial.num_threads = 1;
  tracer.set_enabled(false);
  const MineOpResult serial_run = MineOnce(paths[0], bin, serial, nullptr,
                                           out_path, references[0], &tracer, -1);
  account(0, serial_run);

  // Traced and untraced operations alternate, so the tracing overhead is a
  // paired comparison on the same machine state.
  std::vector<double> traced_wall, untraced_wall, load_rate;
  std::vector<core::MinerStats> traced_stats, profiled_stats;
  double untraced_first_sum = 0.0;  // untraced runs of the first matrix
  int untraced_first_count = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t op = 0;
  for (int round = 0; round == 0 || NowNs() < deadline; ++round) {
    for (size_t i = 0; i < n; ++i, ++op) {
      if (round == 0) {
        // One profiled run per matrix, apart from the timed pairs: the
        // phase counters cost time of their own.
        core::MinerOptions opts = base;
        opts.profile_phases = true;
        tracer.set_enabled(false);
        const MineOpResult r = MineOnce(paths[i], bin, opts, pool.get(),
                                        out_path, references[i], &tracer, -1);
        account(i, r);
        profiled_stats.push_back(r.stats);
      }
      const bool traced_first = op % 2 == 0;
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == traced_first;
        tracer.set_enabled(traced);
        const MineOpResult r = MineOnce(paths[i], bin, base, pool.get(),
                                        out_path, references[i], &tracer, op);
        account(i, r);
        if (traced) {
          traced_wall.push_back(r.wall_s);
          traced_stats.push_back(r.stats);
          const std::vector<double> loads = tracer.Durations("matrix.load");
          if (!loads.empty() && loads.back() > 0) {
            load_rate.push_back(r.load_bytes / 1e6 / loads.back());
          }
        } else {
          untraced_wall.push_back(r.wall_s);
          if (i == 0) {
            untraced_first_sum += r.wall_s;
            ++untraced_first_count;
          }
        }
      }
    }
  }
  tracer.Write(f.Str("spans-out"));

  auto stat_median = [](const std::vector<core::MinerStats>& stats,
                        auto field) {
    std::vector<double> v;
    for (const core::MinerStats& s : stats) v.push_back(field(s));
    return Median(v);
  };
  std::vector<int64_t> counter_sum;
  for (const std::vector<int64_t>& c : counters) {
    if (counter_sum.empty()) counter_sum.assign(c.size(), 0);
    for (size_t k = 0; k < c.size(); ++k) counter_sum[k] += c[k];
  }
  const double parallel_s =
      untraced_first_count > 0 ? untraced_first_sum / untraced_first_count : 0.0;
  JsonOut out;
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Num("matrix.load_s", Median(tracer.Durations("matrix.load")));
  out.Num("matrix.load_mb_per_s", Median(load_rate));
  out.Num("matrix.hash_s", 0.0);
  out.Num("matrix.append_s", 0.0);
  out.Num("core.rwave_build_s",
          stat_median(traced_stats,
                      [](const core::MinerStats& s) { return s.rwave_build_seconds; }));
  out.Num("core.index_build_s",
          stat_median(traced_stats,
                      [](const core::MinerStats& s) { return s.index_build_seconds; }));
  out.Num("core.phase_a_s", Median(tracer.Durations("core.phase_a")));
  out.Num("core.phase_b_s", Median(tracer.Durations("core.phase_b")));
  out.Num("core.filter_ns",
          stat_median(profiled_stats,
                      [](const core::MinerStats& s) { return 1.0 * s.filter_ns; }));
  out.Num("core.score_ns",
          stat_median(profiled_stats,
                      [](const core::MinerStats& s) { return 1.0 * s.score_ns; }));
  out.Num("core.sort_ns",
          stat_median(profiled_stats,
                      [](const core::MinerStats& s) { return 1.0 * s.sort_ns; }));
  out.Num("core.emit_ns",
          stat_median(profiled_stats,
                      [](const core::MinerStats& s) { return 1.0 * s.emit_ns; }));
  out.Num("core.dominance_s", Median(tracer.Durations("core.dominance")));
  EmitCounters(counter_sum, &out);
  out.Num("core.speedup_vs_serial",
          parallel_s > 0 ? serial_run.wall_s / parallel_s : 0.0);
  out.Num("io.archive_write_s", Median(tracer.Durations("io.archive_write")));
  out.Num("trace.covered_frac", Median(tracer.CoveredFractions()));
  const double untraced_p50 = Median(untraced_wall);
  out.Num("trace.overhead_frac",
          untraced_p50 > 0 ? Median(traced_wall) / untraced_p50 - 1.0 : 0.0);
  out.Num("serial_s", serial_run.wall_s);
  out.Num("traced_p50_s", Median(traced_wall));
  out.Num("untraced_p50_s", untraced_p50);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace-timecourse: one operation = one `mine --append --prev-outcome
// --incremental-out --matrix-out` step.
// ---------------------------------------------------------------------------

struct StepResult {
  double wall_s = 0.0;
  bool ok = false;
  io::IncrementalMineResult mined;
  int64_t state_bytes = 0;
};

StepResult AppendStep(const std::string& dir, int k,
                      const core::MinerOptions& opts, const std::string& state_in,
                      const std::string& matrix_in, const std::string& state_out,
                      const std::string& matrix_out, const std::string& reference,
                      Tracer* tracer, int64_t op) {
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "append", -1, op);
  const int p = root.id();
  io::IncrementalState prev;
  {
    ScopedSpan s(tracer, "io.state_load", p, op);
    prev = Check(io::LoadIncrementalState(state_in), "load state");
  }
  matrix::ExpressionMatrix data;
  {
    ScopedSpan s(tracer, "matrix.load", p, op);
    data = Check(matrix::ReadBinaryMatrix(matrix_in), "read matrix");
  }
  const int first_new = data.num_conditions();
  {
    ScopedSpan s(tracer, "matrix.append", p, op);
    Check(AppendColumnFile(ColPath(dir, k), &data), "append");
    Check(matrix::WriteBinaryMatrix(data, matrix_out), "write matrix");
  }
  StepResult r;
  {
    ScopedSpan s(tracer, "core.incremental_mine", p, op);
    r.mined = Check(io::MineIncremental(data, first_new, opts, prev),
                    "incremental mine");
  }
  {
    ScopedSpan s(tracer, "io.state_write", p, op);
    Check(io::WriteIncrementalStateFile(state_out, r.mined.state), "write state");
  }
  const std::string archive = state_out + ".txt";
  {
    ScopedSpan s(tracer, "io.archive_write", p, op);
    Check(io::SaveClusters(r.mined.clusters, archive), "write archive");
  }
  r.wall_s = (NowNs() - t0) * 1e-9;
  r.ok = ReadFile(archive) == reference;
  r.state_bytes = static_cast<int64_t>(fs::file_size(state_out));
  return r;
}

/// Replays append chains (--dirs, comma-separated time courses made by
/// gen-timecourse + ref-timecourse) step by step, interleaving the chains
/// like perfbench/run.py does.
int CmdTraceTimecourse(const Flags& f) {
  const std::vector<std::string> dirs = Split(f.Str("dirs"), ',');
  const std::string work = f.Str("out-dir");
  const int appends = f.Int("appends", 32);
  const double seconds = f.Double("seconds", 10.0);
  const core::MinerOptions opts = MineOptionsFromFlags(f);
  fs::create_directories(work);
  auto ref_path = [](const std::string& dir, int k) {
    char name[64];
    std::snprintf(name, sizeof(name), "/ref_%03d.txt", k);
    return dir + name;
  };

  Tracer tracer(true);
  int attempted = 0;
  int failed = 0;
  // Seed of each chain (not an operation): a full mine with state.
  for (size_t c = 0; c < dirs.size(); ++c) {
    matrix::ExpressionMatrix base =
        Check(matrix::ReadBinaryMatrix(dirs[c] + "/base.bin"), "read base");
    auto seed = Check(io::MineInitial(base, opts), "seed mine");
    const std::string prefix = work + "/c" + std::to_string(c);
    Check(io::WriteIncrementalStateFile(prefix + "seed.inc", seed.state),
          "write seed state");
    Check(matrix::WriteBinaryMatrix(base, prefix + "seed.bin"), "copy base");
    Check(io::SaveClusters(seed.clusters, prefix + "seed.txt"), "write seed");
    ++attempted;
    if (ReadFile(prefix + "seed.txt") != ReadFile(ref_path(dirs[c], 0))) {
      ++failed;
    }
  }

  int64_t remined = 0;
  int64_t spliced = 0;
  std::vector<int64_t> chain_counters;
  std::vector<double> traced_wall, untraced_wall, state_bytes, load_rate;
  std::vector<std::string> state(dirs.size()), mat(dirs.size());
  int64_t op = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    for (int k = 1; k <= appends && (pass == 0 || NowNs() < deadline); ++k) {
      for (size_t c = 0; c < dirs.size(); ++c, ++op) {
        const std::string prefix = work + "/c" + std::to_string(c);
        if (k == 1) {
          state[c] = prefix + "seed.inc";
          mat[c] = prefix + "seed.bin";
        }
        const std::string reference = ReadFile(ref_path(dirs[c], k));
        const std::string parity = std::to_string(k % 2);
        const std::string next_state = prefix + "s" + parity + ".inc";
        const std::string next_mat = prefix + "m" + parity + ".bin";
        // Untraced twin of the step on the same inputs, into scratch
        // outputs; the order alternates so neither side always runs on a
        // warm cache.
        auto untraced = [&] {
          tracer.set_enabled(false);
          StepResult u = AppendStep(dirs[c], k, opts, state[c], mat[c],
                                    work + "/u.inc", work + "/u.bin",
                                    reference, &tracer, op);
          ++attempted;
          if (!u.ok) ++failed;
          untraced_wall.push_back(u.wall_s);
        };
        if (op % 2 == 1) untraced();
        tracer.set_enabled(true);
        const double in_bytes = static_cast<double>(fs::file_size(mat[c]));
        StepResult r = AppendStep(dirs[c], k, opts, state[c], mat[c],
                                  next_state, next_mat, reference, &tracer, op);
        ++attempted;
        if (!r.ok) ++failed;
        if (op % 2 == 0) untraced();
        traced_wall.push_back(r.wall_s);
        state_bytes.push_back(static_cast<double>(r.state_bytes));
        const std::vector<double> loads = tracer.Durations("matrix.load");
        if (!loads.empty() && loads.back() > 0) {
          load_rate.push_back(in_bytes / 1e6 / loads.back());
        }
        if (pass == 0) {
          remined += r.mined.roots_remined;
          spliced += r.mined.roots_spliced;
          AddCounters(r.mined.stats, &chain_counters);
        }
        state[c] = next_state;
        mat[c] = next_mat;
      }
    }
  }
  tracer.Write(f.Str("spans-out"));

  JsonOut out;
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Num("matrix.load_s", Median(tracer.Durations("matrix.load")));
  out.Num("matrix.load_mb_per_s", Median(load_rate));
  out.Num("matrix.hash_s", 0.0);
  out.Num("matrix.append_s", Median(tracer.Durations("matrix.append")));
  out.Num("core.incremental_mine_s",
          Median(tracer.Durations("core.incremental_mine")));
  out.Int("core.roots_remined", remined);
  out.Int("core.roots_spliced", spliced);
  out.Num("core.clean_root_share",
          remined + spliced > 0 ? static_cast<double>(spliced) / (remined + spliced)
                                : 0.0);
  EmitCounters(chain_counters, &out);
  out.Num("io.archive_write_s", Median(tracer.Durations("io.archive_write")));
  out.Num("io.state_load_s", Median(tracer.Durations("io.state_load")));
  out.Num("io.state_write_s", Median(tracer.Durations("io.state_write")));
  out.Num("io.state_bytes", Median(state_bytes));
  out.Num("trace.covered_frac", Median(tracer.CoveredFractions()));
  const double untraced_p50 = Median(untraced_wall);
  out.Num("trace.overhead_frac",
          untraced_p50 > 0 ? Median(traced_wall) / untraced_p50 - 1.0 : 0.0);
  out.Num("traced_p50_s", Median(traced_wall));
  out.Num("untraced_p50_s", untraced_p50);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace-serve: the daemon's request sequence replayed through
// MiningService in-process, at the same concurrency, plus traced solo mines
// of every distinct request for the layers below the service.
//
// Request lines: connection <TAB> http|frame <TAB> method <TAB> target
// <TAB> body <TAB> expected reference key ("-": status must be 200).
// ---------------------------------------------------------------------------

struct PlannedRequest {
  std::string transport, method, target, body, expect;
};

int CmdTraceServe(const Flags& f) {
  const std::string ref_dir = f.Str("ref-dir");
  std::map<int, std::vector<PlannedRequest>> by_conn;
  {
    std::istringstream in(ReadFile(f.Str("requests")));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::vector<std::string> p = Split(line, '\t');
      if (p.size() != 6) Die("bad request line: " + line);
      by_conn[std::stoi(p[0])].push_back({p[1], p[2], p[3], p[4], p[5]});
    }
  }
  std::map<std::string, std::string> refs;
  auto reference = [&](const std::string& key) -> const std::string& {
    auto it = refs.find(key);
    if (it == refs.end()) {
      it = refs.emplace(key, ReadFile(ref_dir + "/" + key + ".json")).first;
    }
    return it->second;
  };
  for (auto& [conn, reqs] : by_conn) {
    for (const PlannedRequest& r : reqs) {
      if (r.expect != "-") reference(r.expect);
    }
  }

  Tracer tracer(true);
  std::atomic<int> attempted{0}, failed{0};
  {
    server::MiningService::Options so;
    so.defaults = ServeDefaults();
    so.num_threads = f.Int("threads", 2);
    so.max_active = f.Int("max-active", 2);
    so.max_queued = f.Int("max-queued", 8);
    so.cache_bytes = int64_t{f.Int("cache-mb", 256)} << 20;
    server::MiningService service(so);
    std::atomic<int64_t> next_op{0};
    std::vector<std::thread> clients;
    for (auto& [conn, reqs] : by_conn) {
      clients.emplace_back([&, reqs = &reqs] {
        for (const PlannedRequest& r : *reqs) {
          const int64_t op = next_op++;
          server::ServiceResponse resp;
          {
            ScopedSpan root(&tracer, "request", -1, op);
            ScopedSpan s(&tracer, "server.handle", root.id(), op);
            resp = r.transport == "frame"
                       ? service.HandleFrame(r.body)
                       : service.HandleHttp(r.method, r.target, r.body);
          }
          ++attempted;
          const bool ok = resp.http_status == 200 &&
                          (r.expect == "-" || resp.body == refs.at(r.expect));
          if (!ok) ++failed;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const server::ResourceCache::Stats cs = service.cache_stats();
    auto ratio = [](int64_t hits, int64_t misses) {
      return hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                               : 0.0;
    };
    std::vector<double> handle_ms;
    for (double s : tracer.Durations("server.handle")) handle_ms.push_back(s * 1e3);

    // Layers below the service: load + hash every matrix, build every
    // (matrix, gamma) model, and mine every distinct request solo.
    const std::vector<ServeKey> keys = ReadServeKeys(f.Str("keys"));
    std::unique_ptr<util::TaskPool> pool =
        std::make_unique<util::TaskPool>(so.num_threads);
    std::map<std::string, double> matrix_bytes;
    std::vector<int64_t> counters;
    std::vector<double> traced_wall, untraced_wall;
    std::vector<double> filter_ns, score_ns, sort_ns, emit_ns;
    int64_t op = 1 << 20;
    for (const ServeKey& k : keys) {
      if (!k.append_files.empty()) continue;  // widths of the appended file
      if (!matrix_bytes.count(k.matrix_path)) {
        ScopedSpan root(&tracer, "matrix", -1, op);
        matrix::ExpressionMatrix m;
        {
          ScopedSpan s(&tracer, "matrix.load", root.id(), op);
          m = LoadKeyMatrix(k);
        }
        {
          ScopedSpan s(&tracer, "matrix.hash", root.id(), op);
          (void)io::HashMatrixContent(m);
        }
        matrix_bytes[k.matrix_path] =
            static_cast<double>(fs::file_size(k.matrix_path));
        ++op;
      }
    }
    for (const ServeKey& k : keys) {
      matrix::ExpressionMatrix m = LoadKeyMatrix(k);
      // Untraced, traced, then profiled (phase counters on, no spans): the
      // first pair gives the tracing overhead, the last the phase split.
      for (int kind = 0; kind < 3; ++kind) {
        const bool traced = kind == 1;
        const bool profiled = kind == 2;
        tracer.set_enabled(traced);
        const int64_t t0 = NowNs();
        SoloResult r;
        {
          ScopedSpan root(&tracer, "solo_mine", -1, op);
          r = SoloServiceMine(m, k.body, pool.get(), profiled, &tracer,
                              root.id(), op);
        }
        if (!profiled) {
          (traced ? traced_wall : untraced_wall).push_back((NowNs() - t0) * 1e-9);
        }
        ++attempted;
        if (r.body != reference(k.key)) ++failed;
        if (traced) AddCounters(r.stats, &counters);
        if (profiled) {
          filter_ns.push_back(static_cast<double>(r.stats.filter_ns));
          score_ns.push_back(static_cast<double>(r.stats.score_ns));
          sort_ns.push_back(static_cast<double>(r.stats.sort_ns));
          emit_ns.push_back(static_cast<double>(r.stats.emit_ns));
        }
        ++op;
      }
    }
    tracer.set_enabled(true);
    tracer.Write(f.Str("spans-out"));

    JsonOut out;
    out.Int("attempted", attempted.load());
    out.Int("failed", failed.load());
    const double load_s = Median(tracer.Durations("matrix.load"));
    double mb = 0.0;
    for (auto& [path, bytes] : matrix_bytes) mb += bytes / 1e6;
    const double sum_load = [&] {
      double s = 0.0;
      for (double d : tracer.Durations("matrix.load")) s += d;
      return s;
    }();
    out.Num("matrix.load_s", load_s);
    out.Num("matrix.load_mb_per_s", sum_load > 0 ? mb / sum_load : 0.0);
    out.Num("matrix.hash_s", Median(tracer.Durations("matrix.hash")));
    out.Num("matrix.append_s", 0.0);
    // Model builds in the service run on one thread (build_threads = 1).
    std::vector<double> rwave_s, index_s;
    for (const ServeKey& k : keys) {
      if (!k.append_files.empty()) continue;
      matrix::ExpressionMatrix m = LoadKeyMatrix(k);
      const server::JsonValue json = Check(server::ParseJson(k.body), "json");
      server::MineRequest req =
          Check(server::ParseMineRequest(json, ServeDefaults()), "request");
      auto model = core::SharedGammaModel::Build(
          m, core::GammaSpec{req.options.gamma_policy, req.options.gamma},
          req.options.min_conditions);
      rwave_s.push_back(model->rwave_build_seconds);
      index_s.push_back(model->index_build_seconds);
    }
    out.Num("core.rwave_build_s", Median(rwave_s));
    out.Num("core.index_build_s", Median(index_s));
    out.Num("core.phase_a_s", Median(tracer.Durations("core.phase_a")));
    out.Num("core.phase_b_s", Median(tracer.Durations("core.phase_b")));
    out.Num("core.filter_ns", Median(filter_ns));
    out.Num("core.score_ns", Median(score_ns));
    out.Num("core.sort_ns", Median(sort_ns));
    out.Num("core.emit_ns", Median(emit_ns));
    EmitCounters(counters, &out);
    out.Num("server.handle_ms_p50", Median(handle_ms));
    out.Num("server.matrix_hit_ratio", ratio(cs.matrix_hits, cs.matrix_misses));
    out.Num("server.model_hit_ratio", ratio(cs.model_hits, cs.model_misses));
    out.Num("server.lookup_hit_ratio",
            ratio(cs.matrix_hits + cs.model_hits,
                  cs.matrix_misses + cs.model_misses));
    out.Int("server.evictions", cs.evictions);
    out.Int("server.invalidations", cs.invalidations);
    out.Num("server.cache_resident_mib",
            static_cast<double>(cs.resident_bytes) / (1 << 20));
    out.Num("trace.covered_frac", Median(tracer.CoveredFractions()));
    const double untraced_p50 = Median(untraced_wall);
    out.Num("trace.overhead_frac",
            untraced_p50 > 0 ? Median(traced_wall) / untraced_p50 - 1.0 : 0.0);
    std::printf("%s\n", out.str().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace regcluster

int main(int argc, char** argv) {
  using namespace regcluster::perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness info|gen-timecourse|ref-serve|"
                 "ref-timecourse|trace-mine|trace-serve|trace-timecourse "
                 "[--flag=value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv);
  if (cmd == "info") return CmdInfo();
  if (cmd == "gen-timecourse") return CmdGenTimecourse(flags);
  if (cmd == "ref-serve") return CmdRefServe(flags);
  if (cmd == "ref-timecourse") return CmdRefTimecourse(flags);
  if (cmd == "trace-mine") return CmdTraceMine(flags);
  if (cmd == "trace-serve") return CmdTraceServe(flags);
  if (cmd == "trace-timecourse") return CmdTraceTimecourse(flags);
  std::fprintf(stderr, "perfbench_harness: unknown command %s\n", cmd.c_str());
  return 2;
}
