#include "server/request.h"

#include "core/options.h"
#include "util/string_util.h"

namespace regcluster {
namespace server {
namespace {

using util::Status;
using util::StatusOr;

Status FieldError(std::string_view field, std::string_view what) {
  return Status::InvalidArgument(util::StrFormat(
      "field '%.*s' %.*s", static_cast<int>(field.size()), field.data(),
      static_cast<int>(what.size()), what.data()));
}

Status ReadString(const JsonValue& v, std::string_view field,
                  std::string* out) {
  if (!v.is_string()) return FieldError(field, "must be a string");
  *out = v.string_value;
  return Status::OK();
}

Status ReadBool(const JsonValue& v, std::string_view field, bool* out) {
  if (!v.is_bool()) return FieldError(field, "must be a boolean");
  *out = v.bool_value;
  return Status::OK();
}

Status ReadDouble(const JsonValue& v, std::string_view field, double* out) {
  if (!v.is_number()) return FieldError(field, "must be a number");
  *out = v.number_value;
  return Status::OK();
}

core::OptionValue ToOptionValue(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNumber:
      return core::OptionValue::Number(v.number_value);
    case JsonValue::Kind::kBool:
      return core::OptionValue::Bool(v.bool_value);
    case JsonValue::Kind::kString:
      return core::OptionValue::String(v.string_value);
    default:
      return core::OptionValue{};
  }
}

StatusOr<MineRequest> ParseCommon(const JsonValue& body,
                                  const core::MinerOptions& defaults,
                                  bool sweep) {
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  MineRequest req;
  req.options = defaults;
  for (const auto& [key, value] : body.members) {
    Status s = Status::OK();
    if (key == "matrix") {
      s = ReadString(value, key, &req.matrix_path);
    } else if (key == "deterministic_output") {
      s = ReadBool(value, key, &req.deterministic_output);
    } else if (key == "spec" && sweep) {
      s = ReadString(value, key, &req.sweep_spec);
    } else if (const core::OptionField* field =
                   core::FindOption(&core::OptionField::json_key, key)) {
      s = core::SetOption(*field, ToOptionValue(value), &req.options);
      if (!s.ok()) s = FieldError(key, s.message());
    } else {
      s = FieldError(key, "is not a recognized request field");
    }
    if (!s.ok()) return s;
  }
  if (req.matrix_path.empty()) {
    return Status::InvalidArgument("request needs a non-empty \"matrix\"");
  }
  if (sweep && req.sweep_spec.empty()) {
    return Status::InvalidArgument("sweep request needs a non-empty \"spec\"");
  }
  return req;
}

}  // namespace

util::StatusOr<MineRequest> ParseMineRequest(
    const JsonValue& body, const core::MinerOptions& defaults) {
  return ParseCommon(body, defaults, /*sweep=*/false);
}

util::StatusOr<MineRequest> ParseSweepRequest(
    const JsonValue& body, const core::MinerOptions& defaults) {
  return ParseCommon(body, defaults, /*sweep=*/true);
}

util::StatusOr<AppendRequest> ParseAppendRequest(const JsonValue& body) {
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  AppendRequest req;
  bool saw_names = false, saw_columns = false;
  for (const auto& [key, value] : body.members) {
    Status s = Status::OK();
    if (key == "matrix") {
      s = ReadString(value, key, &req.matrix_path);
    } else if (key == "names") {
      saw_names = true;
      if (value.kind != JsonValue::Kind::kArray) {
        s = FieldError(key, "must be an array of strings");
      }
      for (const JsonValue& e : value.elements) {
        if (!s.ok()) break;
        std::string name;
        s = ReadString(e, key, &name);
        if (s.ok()) req.names.push_back(std::move(name));
      }
    } else if (key == "columns") {
      saw_columns = true;
      if (value.kind != JsonValue::Kind::kArray) {
        s = FieldError(key, "must be an array of number arrays");
      }
      for (const JsonValue& col : value.elements) {
        if (!s.ok()) break;
        if (col.kind != JsonValue::Kind::kArray) {
          s = FieldError(key, "must be an array of number arrays");
          break;
        }
        std::vector<double> values;
        values.reserve(col.elements.size());
        for (const JsonValue& e : col.elements) {
          double d = 0.0;
          s = ReadDouble(e, key, &d);
          if (!s.ok()) break;
          values.push_back(d);
        }
        if (s.ok()) req.columns.push_back(std::move(values));
      }
    } else {
      s = FieldError(key, "is not a recognized request field");
    }
    if (!s.ok()) return s;
  }
  if (req.matrix_path.empty()) {
    return Status::InvalidArgument("request needs a non-empty \"matrix\"");
  }
  if (!saw_names || !saw_columns) {
    return Status::InvalidArgument(
        "append request needs \"names\" and \"columns\"");
  }
  if (req.names.size() != req.columns.size()) {
    return Status::InvalidArgument(
        "\"names\" and \"columns\" must have the same length");
  }
  if (req.names.empty()) {
    return Status::InvalidArgument(
        "append request needs at least one condition");
  }
  for (const auto& col : req.columns) {
    if (col.size() != req.columns.front().size()) {
      return Status::InvalidArgument(
          "all appended columns must have the same length");
    }
  }
  return req;
}

}  // namespace server
}  // namespace regcluster
