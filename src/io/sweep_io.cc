#include "io/sweep_io.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/threshold.h"
#include "io/json_export.h"
#include "io/metrics_export.h"
#include "util/string_util.h"

namespace regcluster {
namespace io {
namespace {

using util::Status;
using util::StatusOr;

// A sweep axis is an options-table row with an axis name; the row's JSON
// key names it too (so "epsilon" is accepted for "eps").
StatusOr<const core::OptionField*> FindAxis(std::string_view name) {
  std::string names;
  for (const core::OptionField& field : core::OptionFields()) {
    if (field.axis == nullptr) continue;
    if (name == field.axis || name == field.json_key) return &field;
    names += names.empty() ? field.axis : std::string("|") + field.axis;
  }
  return Status::InvalidArgument(util::StrFormat(
      "unknown sweep axis '%.*s' (want %s)", static_cast<int>(name.size()),
      name.data(), names.c_str()));
}

Status ApplyAxis(const core::OptionField& axis, double value,
                 core::MinerOptions* opts) {
  Status s = core::SetOption(axis, core::OptionValue::Number(value), opts);
  if (s.ok()) return s;
  return Status::InvalidArgument(util::StrFormat(
      "sweep axis %s %s, got %g", axis.axis, s.message().c_str(), value));
}

Status TooManyPoints(double count, size_t max_points) {
  return Status::InvalidArgument(util::StrFormat(
      "sweep expands to at least %.0f points (limit %zu)", count, max_points));
}

/// Expands "lo:hi:step" / "v;v;v" / "v" into a value list.
// ParseDouble follows matrix-cell semantics where ""/NA mean "missing" and
// come back as NaN with an OK status; a sweep axis has no missing values, so
// anything non-finite is a spec error.
StatusOr<double> ParseAxisNumber(std::string_view axis_name,
                                 std::string_view text) {
  StatusOr<double> v = util::ParseDouble(text);
  if (!v.ok()) return v;
  if (!std::isfinite(*v)) {
    return Status::InvalidArgument(util::StrFormat(
        "sweep axis %.*s: '%.*s' is not a number",
        static_cast<int>(axis_name.size()), axis_name.data(),
        static_cast<int>(text.size()), text.data()));
  }
  return v;
}

StatusOr<std::vector<double>> ExpandValues(std::string_view axis_name,
                                           std::string_view text,
                                           size_t max_points) {
  std::vector<double> values;
  const std::vector<std::string> range_parts =
      util::Split(std::string(text), ':');
  if (range_parts.size() == 3) {
    StatusOr<double> lo = ParseAxisNumber(axis_name, util::Trim(range_parts[0]));
    StatusOr<double> hi = ParseAxisNumber(axis_name, util::Trim(range_parts[1]));
    StatusOr<double> step =
        ParseAxisNumber(axis_name, util::Trim(range_parts[2]));
    if (!lo.ok()) return lo.status();
    if (!hi.ok()) return hi.status();
    if (!step.ok()) return step.status();
    if (*step <= 0) {
      return Status::InvalidArgument(
          util::StrFormat("sweep axis %.*s: step must be > 0",
                          static_cast<int>(axis_name.size()),
                          axis_name.data()));
    }
    if (*hi < *lo) {
      return Status::InvalidArgument(
          util::StrFormat("sweep axis %.*s: range is descending",
                          static_cast<int>(axis_name.size()),
                          axis_name.data()));
    }
    // Inclusive endpoints with an epsilon so 0.1:0.5:0.1 hits 0.5 despite
    // binary rounding.  Counted before anything is expanded: a tiny step
    // must not allocate its way to the limit.
    const double count = std::floor((*hi - *lo) / *step + 1e-9) + 1;
    if (!(count <= static_cast<double>(max_points))) {
      return TooManyPoints(count, max_points);
    }
    for (double k = 0; k < count; ++k) values.push_back(*lo + k * *step);
    return values;
  }
  if (range_parts.size() != 1) {
    return Status::InvalidArgument(util::StrFormat(
        "sweep axis %.*s: want lo:hi:step or v;v;...",
        static_cast<int>(axis_name.size()), axis_name.data()));
  }
  for (const std::string& item : util::Split(std::string(text), ';')) {
    StatusOr<double> v = ParseAxisNumber(axis_name, util::Trim(item));
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return values;
}

StatusOr<std::vector<core::MinerOptions>> ParseAxesSpec(
    std::string_view spec, const core::MinerOptions& base, size_t max_points) {
  std::vector<std::pair<const core::OptionField*, std::vector<double>>> axes;
  double total = 1;  // at most four axes of <= max_points values: exact
  for (const std::string& field : util::Split(std::string(spec), ',')) {
    const std::string_view trimmed = util::Trim(field);
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(util::StrFormat(
          "sweep spec field '%.*s' has no '='",
          static_cast<int>(trimmed.size()), trimmed.data()));
    }
    const std::string_view name = util::Trim(trimmed.substr(0, eq));
    StatusOr<const core::OptionField*> axis = FindAxis(name);
    if (!axis.ok()) return axis.status();
    for (const auto& [prev, unused] : axes) {
      if (prev == *axis) {
        return Status::InvalidArgument(util::StrFormat(
            "sweep axis '%.*s' listed twice", static_cast<int>(name.size()),
            name.data()));
      }
    }
    StatusOr<std::vector<double>> values =
        ExpandValues(name, util::Trim(trimmed.substr(eq + 1)), max_points);
    if (!values.ok()) return values.status();
    total *= static_cast<double>(values->size());
    if (total > static_cast<double>(max_points)) {
      return TooManyPoints(total, max_points);
    }
    axes.emplace_back(*axis, std::move(*values));
  }
  if (axes.empty()) {
    return Status::InvalidArgument("empty sweep spec");
  }

  // Cross product, later axes varying fastest.
  std::vector<core::MinerOptions> points(1, base);
  for (const auto& [axis, values] : axes) {
    std::vector<core::MinerOptions> next;
    next.reserve(points.size() * values.size());
    for (const core::MinerOptions& p : points) {
      for (double v : values) {
        core::MinerOptions q = p;
        if (Status s = ApplyAxis(*axis, v, &q); !s.ok()) return s;
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  return points;
}

// --- Minimal JSON-list parser: '[' {objects of numeric fields} ']'.  Only
// the shape the spec grammar admits; anything else is InvalidArgument with a
// byte offset. ---
class JsonSpecParser {
 public:
  explicit JsonSpecParser(std::string_view text) : text_(text) {}

  StatusOr<std::vector<core::MinerOptions>> Parse(
      const core::MinerOptions& base, size_t max_points) {
    std::vector<core::MinerOptions> points;
    SkipSpace();
    if (!Consume('[')) return Error("expected '['");
    SkipSpace();
    if (Consume(']')) {
      if (!AtEnd()) return Error("trailing bytes after ']'");
      return Status::InvalidArgument("sweep JSON list is empty");
    }
    while (true) {
      if (points.size() == max_points) {
        return TooManyPoints(static_cast<double>(max_points) + 1, max_points);
      }
      StatusOr<core::MinerOptions> point = ParseObject(base);
      if (!point.ok()) return point.status();
      points.push_back(std::move(*point));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    SkipSpace();
    if (!AtEnd()) return Error("trailing bytes after ']'");
    return points;
  }

 private:
  StatusOr<core::MinerOptions> ParseObject(const core::MinerOptions& base) {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    core::MinerOptions point = base;
    SkipSpace();
    if (Consume('}')) return point;
    while (true) {
      SkipSpace();
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      StatusOr<double> value = ParseNumber();
      if (!value.ok()) return value.status();
      StatusOr<const core::OptionField*> axis = FindAxis(*key);
      if (!axis.ok()) return axis.status();
      if (Status s = ApplyAxis(**axis, *value, &point); !s.ok()) return s;
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return point;
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return Error("escapes not supported in keys");
      out += text_[pos_++];
    }
    if (!Consume('"')) return Error("unterminated string");
    return out;
  }

  StatusOr<double> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a number");
    StatusOr<double> v = util::ParseDouble(text_.substr(start, pos_ - start));
    if (!v.ok()) return v.status();
    return *v;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  Status Error(const char* what) const {
    return Status::InvalidArgument(
        util::StrFormat("sweep JSON: %s at byte %zu", what, pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void WriteIntArray(std::ostream& out, const std::vector<int>& v) {
  out << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ',';
    out << v[i];
  }
  out << ']';
}

const char* MineStatusName(core::MineStatus status) {
  return status == core::MineStatus::kTruncated ? "truncated" : "complete";
}

}  // namespace

StatusOr<std::vector<core::MinerOptions>> ParseSweepSpec(
    const std::string& spec, const core::MinerOptions& base,
    size_t max_points) {
  const std::string_view trimmed = util::Trim(spec);
  if (trimmed.empty()) return Status::InvalidArgument("empty sweep spec");
  if (trimmed.front() == '[') {
    return JsonSpecParser(trimmed).Parse(base, max_points);
  }
  return ParseAxesSpec(trimmed, base, max_points);
}

Status WriteSweepJson(const core::SweepReport& report, std::ostream& out) {
  out << "{\n  \"sweep\": {\n"
      << "    \"status\": \"" << MineStatusName(report.status)
      << "\",\n    \"stop_reason\": \""
      << util::StopReasonName(report.stop_reason)
      << "\",\n    \"runs_total\": " << report.runs.size()
      << ",\n    \"runs_executed\": " << report.runs_executed
      << ",\n    \"first_unfinished\": " << report.first_unfinished
      << ",\n    \"index_builds\": " << report.index_builds
      << ",\n    \"shared_model_bytes\": " << report.shared_model_bytes
      << ",\n    \"nodes_total\": " << report.nodes_total
      << ",\n    \"clusters_total\": " << report.clusters_total
      << ",\n    \"wall_seconds\": " << report.wall_seconds
      << "\n  },\n  \"runs\": [\n";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const core::SweepRun& run = report.runs[i];
    const core::MinerOptions& o = run.options;
    out << "    {\n      \"run\": " << i << ",\n      \"options\": {"
        << "\"gamma\": " << o.gamma << ", \"gamma_policy\": \""
        << core::GammaPolicyName(o.gamma_policy)
        << "\", \"epsilon\": " << o.epsilon
        << ", \"min_genes\": " << o.min_genes
        << ", \"min_conditions\": " << o.min_conditions << "},\n"
        << "      \"executed\": " << (run.executed ? "true" : "false")
        << ",\n      \"shared_model\": "
        << (run.used_shared_model ? "true" : "false");
    if (!run.status.ok()) {
      out << ",\n      \"error\": \"" << JsonEscape(run.status.ToString())
          << "\"";
    }
    if (run.executed) {
      out << ",\n      \"outcome\": {\"status\": \""
          << MineStatusName(run.outcome.status) << "\", \"stop_reason\": \""
          << util::StopReasonName(run.outcome.stop_reason)
          << "\", \"wall_seconds\": " << run.outcome.wall_seconds << "},\n"
          << "      \"stats\": {\"nodes_expanded\": "
          << run.stats.nodes_expanded
          << ", \"extensions_tested\": " << run.stats.extensions_tested
          << ", \"clusters_emitted\": " << run.stats.clusters_emitted
          << ", \"mine_seconds\": " << run.stats.mine_seconds << "},\n"
          << "      \"num_clusters\": " << run.clusters.size()
          << ",\n      \"clusters\": [";
      for (size_t c = 0; c < run.clusters.size(); ++c) {
        const core::RegCluster& cluster = run.clusters[c];
        out << (c > 0 ? ",\n        " : "\n        ") << "{\"chain\": ";
        WriteIntArray(out, cluster.chain);
        out << ", \"p_genes\": ";
        WriteIntArray(out, cluster.p_genes);
        out << ", \"n_genes\": ";
        WriteIntArray(out, cluster.n_genes);
        out << "}";
      }
      out << (run.clusters.empty() ? "]" : "\n      ]");
    }
    out << "\n    }" << (i + 1 < report.runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status WriteSweepCsv(const core::SweepReport& report, std::ostream& out) {
  out << "run,gamma,gamma_policy,epsilon,min_genes,min_conditions,executed,"
         "shared_model,status,stop_reason,clusters,nodes_expanded,"
         "extensions_tested,mine_seconds,wall_seconds\n";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const core::SweepRun& run = report.runs[i];
    const core::MinerOptions& o = run.options;
    const char* status = "skipped";
    if (run.executed) {
      status = MineStatusName(run.outcome.status);
    } else if (!run.status.ok()) {
      status = "error";
    }
    out << i << ',' << o.gamma << ',' << core::GammaPolicyName(o.gamma_policy)
        << ',' << o.epsilon << ',' << o.min_genes << ',' << o.min_conditions
        << ',' << (run.executed ? 1 : 0) << ','
        << (run.used_shared_model ? 1 : 0) << ',' << status << ','
        << util::StopReasonName(run.executed ? run.outcome.stop_reason
                                             : util::StopReason::kNone)
        << ',' << run.clusters.size() << ',' << run.stats.nodes_expanded
        << ',' << run.stats.extensions_tested << ',' << run.stats.mine_seconds
        << ',' << run.outcome.wall_seconds << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status RegisterSweepMetrics(const core::SweepReport& report,
                            obs::MetricsRegistry* registry,
                            const CheckpointStats* checkpoint) {
  struct CounterSpec {
    const char* name;
    const char* help;
    int64_t value;
  };
  const CounterSpec counters[] = {
      {"regcluster_sweep_runs_total", "Grid points in the sweep",
       static_cast<int64_t>(report.runs.size())},
      {"regcluster_sweep_runs_executed", "Runs with output in the report",
       report.runs_executed},
      {"regcluster_sweep_index_builds",
       "Distinct gamma groups the engine built a shared model for",
       report.index_builds},
      {"regcluster_sweep_shared_model_bytes",
       "Heap bytes of the engine-built shared models",
       report.shared_model_bytes},
      {"regcluster_sweep_nodes_total",
       "Deterministic DFS nodes over executed runs", report.nodes_total},
      {"regcluster_sweep_clusters_total",
       "Deterministic emissions over executed runs", report.clusters_total},
      {"regcluster_sweep_truncated",
       "1 when a sweep-level budget/deadline/cancel cut the sweep",
       report.status == core::MineStatus::kTruncated ? 1 : 0},
  };
  for (const CounterSpec& spec : counters) {
    StatusOr<obs::Counter*> counter =
        registry->AddCounter(spec.name, spec.help);
    if (!counter.ok()) return counter.status();
    (*counter)->Add(spec.value);
  }
  StatusOr<obs::Gauge*> wall = registry->AddGauge(
      "regcluster_sweep_wall_seconds", "Wall clock of the whole sweep");
  if (!wall.ok()) return wall.status();
  (*wall)->Set(report.wall_seconds);
  return RegisterCheckpointMetrics(checkpoint, registry);
}

}  // namespace io
}  // namespace regcluster
