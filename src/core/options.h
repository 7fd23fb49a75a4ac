// The one table of mining options.
//
// Every MinerOptions field a front end can set, or that decides which
// clusters are mined, is one OptionField row.  The CLI flags and their
// --help usage, the daemon's request fields, the sweep axes,
// ValidateMinerOptions and RegClusterMiner::SemanticOptionsHash all derive
// from the table, so adding a field means adding one row -- or, for an
// execution hook no front end or hash sees, naming it in
// kExecutionOnlyOptions (options_test fails on a field that is neither).
//
// The MinerOptions{} member initializers stay the library and test
// defaults; the row defaults are what the front ends start from, the
// paper-scale MinG 20 / MinC 6 / gamma 0.05 / epsilon 1.0.

#ifndef REGCLUSTER_CORE_OPTIONS_H_
#define REGCLUSTER_CORE_OPTIONS_H_

#include <array>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/miner.h"
#include "util/status.h"

namespace regcluster {
namespace core {

/// The member a row reads and writes; the alternative is the row's type.
using OptionMember =
    std::variant<int MinerOptions::*, int64_t MinerOptions::*,
                 double MinerOptions::*, bool MinerOptions::*,
                 GammaPolicy MinerOptions::*, std::vector<int> MinerOptions::*>;

struct OptionField {
  const char* name;  ///< the member's name; labels validation errors
  OptionMember member;
  const char* default_text;  ///< front-end default; nullptr = MinerOptions{}
  double min;     ///< numeric rows must be >= min; doubles also finite
  bool semantic;  ///< covered by SemanticOptionsHash
  const char* flag;      ///< CLI --flag, or nullptr
  const char* json_key;  ///< daemon request field, or nullptr
  const char* axis;      ///< sweep axis (also spelled as json_key), or nullptr
  int64_t flag_scale = 1;  ///< member units per flag unit (values >= 0)
  const char* daemon_default = nullptr;  ///< when it differs from the CLI's
};

/// MinerOptions members with no row: execution hooks that no front end
/// sets and the semantic hash never covers.
inline constexpr std::array<const char*, 6> kExecutionOnlyOptions = {
    "cancel_token",         "shared_model",   "root_set",
    "capture_root_results", "profile_phases", "budget_check_interval"};

/// The rows, in MinerOptions declaration order (the hash's mix order).
std::span<const OptionField> OptionFields();

/// The row whose `column` (&OptionField::flag, ::json_key or ::axis) is
/// `name`, or nullptr.
const OptionField* FindOption(const char* OptionField::*column,
                              std::string_view name);

/// The rows whose `column` is set, in table order.
std::vector<const OptionField*> RowsWith(const char* OptionField::*column);

/// The "[--flag=default]" usage of `rows` (a policy row lists every
/// policy), wrapped into help lines indented by two.
std::string FlagUsage(std::span<const OptionField* const> rows);

/// The row of `member`; every member outside kExecutionOnlyOptions has one.
template <typename T>
const OptionField& OptionFor(T MinerOptions::*member) {
  for (const OptionField& field : OptionFields()) {
    const auto* m = std::get_if<T MinerOptions::*>(&field.member);
    if (m != nullptr && *m == member) return field;
  }
  std::abort();
}

enum class FrontEnd { kCli, kDaemon };

/// MinerOptions{} with every row's front-end default applied.
MinerOptions FrontEndDefaults(FrontEnd front_end);

/// A value as a front end received it.  Flag text converts to any row
/// type; a JSON scalar or sweep number keeps its kind, so a JSON string
/// sets only a gamma policy and a number never sets a boolean.
struct OptionValue {
  enum class Kind { kText, kNumber, kBool, kString, kOther };
  Kind kind = Kind::kOther;
  std::string_view text;  // kText, kString
  double number = 0.0;    // kNumber
  bool boolean = false;   // kBool

  static OptionValue Text(std::string_view t) { return {Kind::kText, t}; }
  static OptionValue String(std::string_view s) { return {Kind::kString, s}; }
  static OptionValue Number(double v) { return {Kind::kNumber, {}, v}; }
  static OptionValue Bool(bool b) { return {Kind::kBool, {}, 0.0, b}; }
};

/// The boolean spellings flag text accepts: true|false|1|0|yes|no.
std::optional<bool> ParseBoolText(std::string_view text);

/// Converts `value` to the row's type and stores it.  InvalidArgument when
/// it does not convert (wrong kind, malformed text, a non-integer or an
/// integer outside the member type, an unknown policy); no range check.
/// Messages are predicates ("must be an integer") that the caller prefixes
/// with its own name for the field.
util::Status ConvertOption(const OptionField& field, const OptionValue& value,
                           MinerOptions* options);

/// ConvertOption, then the row's range check.
util::Status SetOption(const OptionField& field, const OptionValue& value,
                       MinerOptions* options);

/// Every row's range check plus the one cross-field rule: a relative gamma
/// policy needs gamma <= 1.  Matrix-dependent checks (MinC against the
/// condition count, list members in range) stay with the caller.
util::Status ValidateMinerOptions(const MinerOptions& options);

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_OPTIONS_H_
