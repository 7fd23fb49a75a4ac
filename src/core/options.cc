#include "core/options.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "core/threshold.h"
#include "util/hash128.h"
#include "util/string_util.h"

namespace regcluster {
namespace core {
namespace {

using util::Status;
using M = MinerOptions;

constexpr double kAny = -std::numeric_limits<double>::infinity();
constexpr bool kSemantic = true;
constexpr bool kExecution = false;

// Columns: name, member, default, min, semantic, flag, JSON key, axis
// [, flag scale, daemon default].
const OptionField kFields[] = {
    {"min_genes", &M::min_genes, "20", 1, kSemantic, "ming", "ming", "ming"},
    {"min_conditions", &M::min_conditions, "6", 2, kSemantic, "minc", "minc",
     "minc"},
    {"gamma", &M::gamma, "0.05", 0, kSemantic, "gamma", "gamma", "gamma"},
    {"gamma_policy", &M::gamma_policy, "range", kAny, kSemantic,
     "gamma-policy", "gamma_policy", nullptr},
    {"epsilon", &M::epsilon, "1.0", 0, kSemantic, "epsilon", "epsilon", "eps"},
    {"num_threads", &M::num_threads, "1", 0, kExecution, "threads", nullptr,
     nullptr},
    {"prune_min_genes", &M::prune_min_genes, "true", kAny, kSemantic, nullptr,
     nullptr, nullptr},
    {"prune_min_conds", &M::prune_min_conds, "true", kAny, kSemantic, nullptr,
     nullptr, nullptr},
    {"prune_p_majority", &M::prune_p_majority, "true", kAny, kSemantic,
     nullptr, nullptr, nullptr},
    {"prune_duplicates", &M::prune_duplicates, "true", kAny, kSemantic,
     nullptr, nullptr, nullptr},
    // The one front-end difference: `mine` writes the deduplicated archive
    // people read; a daemon response is the raw overlapping output (the
    // paper's, and the library's) that clients post-process.
    {"remove_dominated", &M::remove_dominated, "true", kAny, kSemantic,
     "remove-dominated", "remove_dominated", nullptr, 1, "false"},
    {"closed_chains_only", &M::closed_chains_only, "false", kAny, kSemantic,
     nullptr, nullptr, nullptr},
    {"required_genes", &M::required_genes, nullptr, kAny, kSemantic, nullptr,
     nullptr, nullptr},
    {"allowed_conditions", &M::allowed_conditions, nullptr, kAny, kSemantic,
     nullptr, nullptr, nullptr},
    {"max_clusters", &M::max_clusters, "-1", kAny, kExecution, "max-clusters",
     "max_clusters", nullptr},
    {"max_nodes", &M::max_nodes, "-1", kAny, kExecution, "max-nodes",
     "max_nodes", nullptr},
    {"deadline_ms", &M::deadline_ms, "-1", kAny, kExecution, "deadline-ms",
     "deadline_ms", nullptr},
    {"soft_memory_limit_bytes", &M::soft_memory_limit_bytes, "-1", kAny,
     kExecution, nullptr, nullptr, nullptr},
    {"model_cache_bytes", &M::model_cache_bytes, "-1", kAny, kExecution,
     "model-cache-mb", nullptr, nullptr, int64_t{1} << 20},
    {"model_cache_shards", &M::model_cache_shards, "8", 1, kExecution,
     "model-cache-shards", nullptr, nullptr},
    {"collect_stats", &M::collect_stats, "true", kAny, kExecution,
     "collect-stats", "collect_stats", nullptr},
};

Status Invalid(std::string what) {
  return Status::InvalidArgument(std::move(what));
}

// A JSON or sweep number, or flag text that is one whole number.
std::optional<double> NumberOf(const OptionValue& value) {
  if (value.kind == OptionValue::Kind::kNumber) return value.number;
  if (value.kind != OptionValue::Kind::kText) return std::nullopt;
  const char* end = value.text.data() + value.text.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(value.text.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return parsed;
}

// The one integer conversion: integral, exactly representable (|v| < 2^53,
// so flag text never rounds into range) and inside the member type -- never
// a wrapping cast.  A flag value >= 0 is first scaled into member units.
template <typename Int>
Status ToInt(const OptionValue& value, int64_t flag_scale, Int* out) {
  const std::optional<double> v = NumberOf(value);
  if (!v || *v != std::floor(*v)) return Invalid("must be an integer");
  const double scale =
      value.kind == OptionValue::Kind::kText ? flag_scale : 1.0;
  constexpr double kExact = 0x1p53 - 1;
  const double lo = std::max<double>(std::numeric_limits<Int>::min(), -kExact);
  const double hi = std::floor(
      std::min<double>(std::numeric_limits<Int>::max(), kExact) / scale);
  if (!(*v >= lo && *v <= hi)) {
    return Invalid(
        util::StrFormat("must be an integer in [%.0f, %.0f]", lo, hi));
  }
  *out = static_cast<Int>(*v >= 0 ? *v * scale : *v);
  return Status::OK();
}

Status ToValue(const OptionValue& value, double* out) {
  const std::optional<double> v = NumberOf(value);
  if (!v) return Invalid("must be a number");
  *out = *v;
  return Status::OK();
}

Status ToValue(const OptionValue& value, bool* out) {
  std::optional<bool> v;
  if (value.kind == OptionValue::Kind::kBool) v = value.boolean;
  if (value.kind == OptionValue::Kind::kText) v = ParseBoolText(value.text);
  if (v) {
    *out = *v;
    return Status::OK();
  }
  return Invalid(value.kind == OptionValue::Kind::kText
                     ? "must be true|false|1|0|yes|no"
                     : "must be a boolean");
}

Status ToValue(const OptionValue& value, GammaPolicy* out) {
  const bool named = value.kind == OptionValue::Kind::kText ||
                     value.kind == OptionValue::Kind::kString;
  if (named && ParseGammaPolicy(std::string(value.text), out)) {
    return Status::OK();
  }
  return Invalid("must name a gamma policy (" + GammaPolicyNames() + ")");
}

Status ToValue(const OptionValue&, std::vector<int>*) {
  return Invalid("has no front-end form");
}

// The row's range check of the value `options` holds; "" when it passes.
std::string RangeError(const OptionField& field, const MinerOptions& options) {
  return std::visit(
      [&](auto member) -> std::string {
        const auto& v = options.*member;
        using V = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<V, double>) {
          if (!std::isfinite(v)) return "must be finite";
        }
        if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
          if (!(static_cast<double>(v) >= field.min)) {
            return util::StrFormat("must be >= %g", field.min);
          }
        }
        return "";
      },
      field.member);
}

}  // namespace

std::span<const OptionField> OptionFields() { return kFields; }

const OptionField* FindOption(const char* OptionField::*column,
                              std::string_view name) {
  for (const OptionField& field : kFields) {
    if (field.*column != nullptr && name == field.*column) return &field;
  }
  return nullptr;
}

std::vector<const OptionField*> RowsWith(const char* OptionField::*column) {
  std::vector<const OptionField*> rows;
  for (const OptionField& field : kFields) {
    if (field.*column != nullptr) rows.push_back(&field);
  }
  return rows;
}

std::string FlagUsage(std::span<const OptionField* const> rows) {
  std::string out = " ";
  size_t line_start = 0;
  for (const OptionField* row : rows) {
    const bool policy =
        std::holds_alternative<GammaPolicy M::*>(row->member);
    const std::string fragment = util::StrFormat(
        " [--%s=%s]", row->flag,
        policy ? GammaPolicyNames().c_str() : row->default_text);
    if (out.size() - line_start + fragment.size() > 72 &&
        out.size() > line_start + 1) {
      out += "\n ";
      line_start = out.size() - 1;
    }
    out += fragment;
  }
  return out;
}

MinerOptions FrontEndDefaults(FrontEnd front_end) {
  MinerOptions options;
  for (const OptionField& field : kFields) {
    const char* text = front_end == FrontEnd::kDaemon && field.daemon_default
                           ? field.daemon_default
                           : field.default_text;
    if (text != nullptr &&
        !ConvertOption(field, OptionValue::Text(text), &options).ok()) {
      std::abort();  // a malformed table default (options_test pins them)
    }
  }
  return options;
}

std::optional<bool> ParseBoolText(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  return std::nullopt;
}

Status ConvertOption(const OptionField& field, const OptionValue& value,
                     MinerOptions* options) {
  return std::visit(
      [&](auto member) -> Status {
        auto* out = &(options->*member);
        using V = std::remove_pointer_t<decltype(out)>;
        if constexpr (std::is_same_v<V, int> || std::is_same_v<V, int64_t>) {
          return ToInt(value, field.flag_scale, out);
        } else {
          return ToValue(value, out);
        }
      },
      field.member);
}

Status SetOption(const OptionField& field, const OptionValue& value,
                 MinerOptions* options) {
  if (Status s = ConvertOption(field, value, options); !s.ok()) return s;
  const std::string error = RangeError(field, *options);
  return error.empty() ? Status::OK() : Invalid(error);
}

Status ValidateMinerOptions(const MinerOptions& options) {
  for (const OptionField& field : kFields) {
    if (std::string error = RangeError(field, options); !error.empty()) {
      return Invalid(std::string(field.name) + " " + error);
    }
  }
  if (options.gamma_policy != GammaPolicy::kAbsolute && options.gamma > 1.0) {
    return Invalid("gamma must be in [0, 1] for relative policies");
  }
  return Status::OK();
}

uint64_t RegClusterMiner::SemanticOptionsHash(const MinerOptions& options) {
  // Bit-identical to the digest RGCXINC1 state, RGCXCKP1 snapshots and sweep
  // grids were written with: semantic rows in table order, doubles by bit
  // pattern, other scalars sign-extended (as Fnv128::MixInt does), and a -1
  // before each list plus one after the last.
  util::Fnv128 h;
  for (const OptionField& field : kFields) {
    if (!field.semantic) continue;
    std::visit(
        [&](auto member) {
          const auto& v = options.*member;
          using V = std::remove_cvref_t<decltype(v)>;
          if constexpr (std::is_same_v<V, double>) {
            h.Mix64(std::bit_cast<uint64_t>(v));
          } else if constexpr (std::is_same_v<V, std::vector<int>>) {
            h.MixInt(-1);
            for (int x : v) h.MixInt(x);
          } else {
            h.Mix64(static_cast<uint64_t>(static_cast<int64_t>(v)));
          }
        },
        field.member);
  }
  h.MixInt(-1);
  return h.Digest().lo;
}

}  // namespace core
}  // namespace regcluster
