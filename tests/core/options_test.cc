// Property tests of the options table (core/options.h): every front end
// sets a row the same way, the semantic hash follows exactly the semantic
// rows (and keeps the digests files were written with), and no
// MinerOptions field escapes the table.

#include "core/options.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "io/sweep_io.h"
#include "server/json_reader.h"
#include "server/request.h"
#include "util/string_util.h"

namespace regcluster {
namespace core {
namespace {

// --- Aggregate field-count probe: the largest N for which MinerOptions is
// brace-initializable from N values convertible to anything. ---
struct AnyField {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <typename T, typename... Fields>
constexpr size_t FieldCount() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return FieldCount<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

TEST(OptionsTable, EveryMinerOptionsFieldIsARowOrExecutionOnly) {
  std::set<std::string> names;
  for (const OptionField& field : OptionFields()) names.insert(field.name);
  for (const char* name : kExecutionOnlyOptions) names.insert(name);
  EXPECT_EQ(names.size(), OptionFields().size() + kExecutionOnlyOptions.size())
      << "a member is both a row and execution-only, or has two rows";
  EXPECT_EQ(FieldCount<MinerOptions>(), names.size())
      << "MinerOptions gained a field: add a row to core/options.cc (or, for "
         "an execution hook no front end or hash sees, list it in "
         "kExecutionOnlyOptions)";
}

TEST(OptionsTable, FrontEndNamesAreUniqueAndFound) {
  for (auto column : {&OptionField::flag, &OptionField::json_key,
                      &OptionField::axis}) {
    for (const OptionField& field : OptionFields()) {
      if (field.*column == nullptr) continue;
      EXPECT_EQ(FindOption(column, field.*column), &field) << field.*column;
    }
    EXPECT_EQ(FindOption(column, "no-such-option"), nullptr);
  }
}

TEST(OptionsTable, DefaultsLibraryAndFrontEnds) {
  const MinerOptions library;
  EXPECT_EQ(library.min_genes, 2);
  EXPECT_EQ(library.min_conditions, 2);
  EXPECT_EQ(library.gamma, 0.1);
  EXPECT_EQ(library.epsilon, 0.1);
  EXPECT_FALSE(library.remove_dominated);

  const MinerOptions cli = FrontEndDefaults(FrontEnd::kCli);
  EXPECT_EQ(cli.min_genes, 20);
  EXPECT_EQ(cli.min_conditions, 6);
  EXPECT_EQ(cli.gamma, 0.05);
  EXPECT_EQ(cli.epsilon, 1.0);
  EXPECT_EQ(cli.gamma_policy, GammaPolicy::kRangeFraction);
  EXPECT_TRUE(cli.remove_dominated);
  EXPECT_TRUE(cli.collect_stats);
  EXPECT_EQ(cli.num_threads, 1);
  EXPECT_EQ(cli.max_nodes, -1);
  EXPECT_EQ(cli.max_clusters, -1);
  EXPECT_EQ(cli.deadline_ms, -1.0);
  EXPECT_EQ(cli.model_cache_bytes, -1);
  EXPECT_EQ(cli.model_cache_shards, 8);
  EXPECT_TRUE(ValidateMinerOptions(cli).ok());

  // The one front-end difference.
  MinerOptions daemon = FrontEndDefaults(FrontEnd::kDaemon);
  EXPECT_FALSE(daemon.remove_dominated);
  daemon.remove_dominated = true;
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(daemon),
            RegClusterMiner::SemanticOptionsHash(cli));
}

// --- Sample values: a valid non-default value per row, as flag text, as a
// JSON literal, and as a number (sweep axes). ---
struct Sample {
  std::string text;
  std::string json;
  double number = 0.0;
};

Sample SampleFor(const OptionField& field, const MinerOptions& base) {
  return std::visit(
      [&](auto member) -> Sample {
        using V = std::remove_cvref_t<decltype(base.*member)>;
        if constexpr (std::is_same_v<V, int> || std::is_same_v<V, int64_t>) {
          const bool bounded = std::isfinite(field.min);
          const int v = bounded ? static_cast<int>(field.min) + 3 : 12345;
          return {std::to_string(v), std::to_string(v), static_cast<double>(v)};
        } else if constexpr (std::is_same_v<V, double>) {
          return {"0.375", "0.375", 0.375};
        } else if constexpr (std::is_same_v<V, bool>) {
          const std::string t = base.*member ? "false" : "true";
          return {t, t, 0.0};
        } else if constexpr (std::is_same_v<V, GammaPolicy>) {
          return {"stddev", "\"stddev\"", 0.0};
        } else {
          return {};
        }
      },
      field.member);
}

// True when every row reads the same in `a` and `b`.
bool SameRows(const MinerOptions& a, const MinerOptions& b) {
  for (const OptionField& field : OptionFields()) {
    const bool same = std::visit(
        [&](auto member) { return a.*member == b.*member; }, field.member);
    if (!same) return false;
  }
  return true;
}

TEST(OptionsTable, EveryFrontEndSetsARowIdentically) {
  const MinerOptions base = FrontEndDefaults(FrontEnd::kDaemon);
  int exercised = 0;
  for (const OptionField& field : OptionFields()) {
    if (!field.flag && !field.json_key && !field.axis) continue;
    const Sample sample = SampleFor(field, base);
    SCOPED_TRACE(field.name);
    std::vector<MinerOptions> via;
    if (field.flag != nullptr) {
      MinerOptions o = base;
      ASSERT_TRUE(SetOption(field, OptionValue::Text(sample.text), &o).ok());
      if (field.flag_scale == 1) via.push_back(o);
      EXPECT_FALSE(SameRows(o, base));
    }
    if (field.json_key != nullptr) {
      const std::string body = std::string("{\"matrix\":\"m.tsv\",\"") +
                               field.json_key + "\":" + sample.json + "}";
      auto json = server::ParseJson(body);
      ASSERT_TRUE(json.ok()) << body;
      auto request = server::ParseMineRequest(*json, base);
      ASSERT_TRUE(request.ok()) << request.status().ToString();
      via.push_back(request->options);
    }
    if (field.axis != nullptr) {
      for (const char* name : {field.axis, field.json_key}) {
        auto points = io::ParseSweepSpec(
            std::string(name) + "=" + sample.text, base);
        ASSERT_TRUE(points.ok()) << points.status().ToString();
        ASSERT_EQ(points->size(), 1u);
        via.push_back(points->front());
        auto list = io::ParseSweepSpec(
            std::string("[{\"") + name + "\": " + sample.text + "}]", base);
        ASSERT_TRUE(list.ok()) << list.status().ToString();
        via.push_back(list->front());
      }
    }
    for (const MinerOptions& o : via) {
      EXPECT_FALSE(SameRows(o, base));
      EXPECT_TRUE(SameRows(o, via.front()));
      EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(o),
                RegClusterMiner::SemanticOptionsHash(via.front()));
    }
    ++exercised;
  }
  EXPECT_GE(exercised, 13);
}

TEST(OptionsTable, FlagScaleConvertsFlagUnits) {
  const OptionField& field = OptionFor(&MinerOptions::model_cache_bytes);
  MinerOptions o;
  ASSERT_TRUE(SetOption(field, OptionValue::Text("3"), &o).ok());
  EXPECT_EQ(o.model_cache_bytes, int64_t{3} << 20);
  ASSERT_TRUE(SetOption(field, OptionValue::Text("-1"), &o).ok());
  EXPECT_EQ(o.model_cache_bytes, -1);
  EXPECT_FALSE(
      SetOption(field, OptionValue::Text("9000000000000000"), &o).ok());
}

TEST(OptionsTable, HashChangesIfAndOnlyIfASemanticRowChanges) {
  const MinerOptions base = FrontEndDefaults(FrontEnd::kCli);
  const uint64_t base_hash = RegClusterMiner::SemanticOptionsHash(base);
  for (const OptionField& field : OptionFields()) {
    SCOPED_TRACE(field.name);
    MinerOptions o = base;
    std::visit(
        [&](auto member) {
          using V = std::remove_cvref_t<decltype(o.*member)>;
          if constexpr (std::is_same_v<V, std::vector<int>>) {
            (o.*member).push_back(1);
          } else if constexpr (std::is_same_v<V, bool>) {
            o.*member = !(o.*member);
          } else if constexpr (std::is_same_v<V, GammaPolicy>) {
            o.*member = GammaPolicy::kMeanFraction;
          } else {
            o.*member = o.*member + 1;
          }
        },
        field.member);
    EXPECT_FALSE(SameRows(o, base));
    EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(o) != base_hash,
              field.semantic);
  }
  // Execution-only fields never reach the hash.
  MinerOptions o = base;
  o.budget_check_interval = 1;
  o.profile_phases = true;
  o.capture_root_results = true;
  o.root_set = {0};
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(o), base_hash);
}

TEST(OptionsTable, SemanticHashDigestsArePinned) {
  // Recorded before the hash was derived from the table: the RGCXINC1 state
  // files, RGCXCKP1 snapshots and sweep grids already written carry these.
  const MinerOptions library;
  MinerOptions cli;
  cli.min_genes = 20;
  cli.min_conditions = 6;
  cli.gamma = 0.05;
  cli.epsilon = 1.0;
  cli.remove_dominated = true;
  MinerOptions absolute;
  absolute.gamma_policy = GammaPolicy::kAbsolute;
  absolute.gamma = 2.5;
  absolute.prune_min_genes = false;
  absolute.prune_min_conds = false;
  absolute.prune_p_majority = false;
  absolute.prune_duplicates = false;
  absolute.closed_chains_only = true;
  MinerOptions targeted;
  targeted.required_genes = {3, 1, 4};
  targeted.allowed_conditions = {0, 2, 5, 9};
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(library),
            0xd1519ad22f4d3009ULL);
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(cli), 0xf06864e6ac6c92eeULL);
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(absolute),
            0xf550a91e06f29085ULL);
  EXPECT_EQ(RegClusterMiner::SemanticOptionsHash(targeted),
            0x152d951e5f584531ULL);
}

TEST(OptionsTable, ConversionAndRangeErrors) {
  const MinerOptions base = FrontEndDefaults(FrontEnd::kCli);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const OptionField* field;
    OptionValue value;
  };
  const Case rejected[] = {
      {&OptionFor(&MinerOptions::min_genes), OptionValue::Text("30abc")},
      {&OptionFor(&MinerOptions::min_genes), OptionValue::Text("3000000000")},
      {&OptionFor(&MinerOptions::min_genes), OptionValue::Number(3e9)},
      {&OptionFor(&MinerOptions::min_genes), OptionValue::Number(2.5)},
      {&OptionFor(&MinerOptions::min_genes), OptionValue::String("20")},
      {&OptionFor(&MinerOptions::min_genes), OptionValue::Number(0)},
      {&OptionFor(&MinerOptions::min_conditions), OptionValue::Number(1)},
      {&OptionFor(&MinerOptions::max_nodes), OptionValue::Number(1e300)},
      {&OptionFor(&MinerOptions::gamma), OptionValue::Number(nan)},
      {&OptionFor(&MinerOptions::gamma), OptionValue::Text("inf")},
      {&OptionFor(&MinerOptions::gamma), OptionValue::Number(-0.5)},
      {&OptionFor(&MinerOptions::epsilon), OptionValue::Text("nan")},
      {&OptionFor(&MinerOptions::deadline_ms), OptionValue::Number(inf)},
      {&OptionFor(&MinerOptions::remove_dominated), OptionValue::Text("flase")},
      {&OptionFor(&MinerOptions::remove_dominated), OptionValue::Number(1)},
      {&OptionFor(&MinerOptions::gamma_policy), OptionValue::String("bogus")},
      {&OptionFor(&MinerOptions::gamma_policy), OptionValue::Bool(true)},
      {&OptionFor(&MinerOptions::model_cache_shards), OptionValue::Text("0")},
      {&OptionFor(&MinerOptions::num_threads), OptionValue::Text("-1")},
  };
  for (const Case& c : rejected) {
    MinerOptions o = base;
    const util::Status st = SetOption(*c.field, c.value, &o);
    EXPECT_FALSE(st.ok()) << c.field->name;
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  }
  for (const char* text : {"true", "false", "1", "0", "yes", "no"}) {
    MinerOptions o = base;
    EXPECT_TRUE(SetOption(OptionFor(&MinerOptions::remove_dominated),
                          OptionValue::Text(text), &o)
                    .ok())
        << text;
    EXPECT_EQ(o.remove_dominated, *ParseBoolText(text));
  }

  // The cross-field rule: gamma <= 1 unless the policy is absolute.
  MinerOptions o = base;
  o.gamma = 1.5;
  EXPECT_FALSE(ValidateMinerOptions(o).ok());
  o.gamma_policy = GammaPolicy::kAbsolute;
  EXPECT_TRUE(ValidateMinerOptions(o).ok());
}

}  // namespace
}  // namespace core
}  // namespace regcluster
