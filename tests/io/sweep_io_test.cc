// Unit tests for the sweep spec grammar and the report writers
// (io/sweep_io.h).  The CLI e2e (cli_sweep.cmake) covers the same surface
// end-to-end but cannot pass literal semicolons through CMake argument
// lists, so the `v;v` list form is pinned here.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "core/sweep.h"
#include "io/sweep_io.h"
#include "obs/metrics.h"

namespace regcluster {
namespace io {
namespace {

core::MinerOptions Base() {
  core::MinerOptions base;
  base.min_genes = 7;
  base.min_conditions = 4;
  base.gamma = 0.3;
  base.epsilon = 0.7;
  base.gamma_policy = core::GammaPolicy::kStdDevFraction;
  return base;
}

TEST(ParseSweepSpecTest, RangeAxisExpandsInclusiveEndpoints) {
  auto points = ParseSweepSpec("gamma=0.1:0.5:0.1", Base());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 5u);
  for (size_t i = 0; i < points->size(); ++i) {
    EXPECT_NEAR((*points)[i].gamma, 0.1 + 0.1 * static_cast<double>(i), 1e-12);
    // Unswept options come from the base.
    EXPECT_EQ((*points)[i].min_genes, 7);
    EXPECT_EQ((*points)[i].epsilon, 0.7);
    EXPECT_EQ((*points)[i].gamma_policy, core::GammaPolicy::kStdDevFraction);
  }
}

TEST(ParseSweepSpecTest, SemicolonListAndCrossProductOrder) {
  // Later axes vary fastest.
  auto points = ParseSweepSpec("gamma=0.1;0.2,minc=3;4", Base());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 4u);
  EXPECT_EQ((*points)[0].gamma, 0.1);
  EXPECT_EQ((*points)[0].min_conditions, 3);
  EXPECT_EQ((*points)[1].gamma, 0.1);
  EXPECT_EQ((*points)[1].min_conditions, 4);
  EXPECT_EQ((*points)[2].gamma, 0.2);
  EXPECT_EQ((*points)[2].min_conditions, 3);
  EXPECT_EQ((*points)[3].gamma, 0.2);
  EXPECT_EQ((*points)[3].min_conditions, 4);
}

TEST(ParseSweepSpecTest, EpsilonAliasesAndSingleValues) {
  auto a = ParseSweepSpec("eps=0.05,ming=3", Base());
  auto b = ParseSweepSpec("epsilon=0.05,ming=3", Base());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ((*a)[0].epsilon, 0.05);
  EXPECT_EQ((*a)[0].min_genes, 3);
  EXPECT_EQ((*b)[0].epsilon, (*a)[0].epsilon);
}

TEST(ParseSweepSpecTest, JsonListForm) {
  auto points = ParseSweepSpec(
      "  [ {\"gamma\": 0.1, \"minc\": 3}, {\"eps\": 0.2}, {} ] ", Base());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0].gamma, 0.1);
  EXPECT_EQ((*points)[0].min_conditions, 3);
  EXPECT_EQ((*points)[1].epsilon, 0.2);
  EXPECT_EQ((*points)[1].gamma, 0.3);   // base
  EXPECT_EQ((*points)[2].gamma, 0.3);   // bare {} is pure base
}

TEST(ParseSweepSpecTest, MalformedSpecsAreInvalidArgument) {
  const char* bad[] = {
      "",                      // empty
      "   ",                   // blank
      "delta=0.1",             // unknown axis
      "gamma",                 // no '='
      "gamma=",                // no values
      "gamma=a",               // not a number
      "gamma=0.5:0.1:0.1",     // descending range
      "gamma=0.1:0.5:0",       // zero step
      "gamma=0.1:0.5:-0.1",    // negative step
      "gamma=0.1:0.5",         // two-part range
      "ming=2.5",              // non-integer int axis
      "gamma=0.1,gamma=0.2",   // duplicate axis
      "[",                     // unterminated JSON
      "[]",                    // empty JSON list
      "[{\"gamma\": }]",       // missing value
      "[{\"delta\": 1}]",      // unknown JSON key
      "[{\"gamma\": 0.1}] x",  // trailing bytes
      "ming=3000000000",       // outside MinG's int type
      "[{\"minc\": -5e9}]",    // same, through the JSON form
      "ming=0",                // below the MinG row's range
      "eps=-0.5",              // below the epsilon row's range
  };
  for (const char* spec : bad) {
    auto points = ParseSweepSpec(spec, Base());
    EXPECT_FALSE(points.ok()) << "spec accepted: '" << spec << "'";
  }
}

TEST(ParseSweepSpecTest, OutOfTypeIntegerIsAnErrorNamingTheAxis) {
  // Once a double -> int cast that wrapped to MinG -2147483648.
  for (const char* spec : {"ming=3000000000", "minc=2:3000000002:3000000000"}) {
    auto points = ParseSweepSpec(spec, Base());
    ASSERT_FALSE(points.ok()) << spec;
    EXPECT_EQ(points.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(points.status().message().find("sweep axis min"),
              std::string::npos)
        << points.status().message();
  }
}

TEST(ParseSweepSpecTest, PointCountIsBoundedBeforeExpansion) {
  // Counted, not expanded: a 1e12-point cross product and a single axis
  // with a 1e-12 step are both over even the no-limit ceiling.
  for (const char* spec : {"gamma=0:1:1e-4,eps=0:1:1e-4,ming=1:10000:1",
                           "gamma=0:1:1e-12", "eps=0:1e300:1e-300"}) {
    auto points = ParseSweepSpec(spec, Base());
    ASSERT_FALSE(points.ok()) << spec;
    EXPECT_NE(points.status().message().find("limit"), std::string::npos)
        << points.status().message();
  }
  // A caller's limit applies to ranges, lists, cross products and the
  // JSON form alike, and a spec exactly at it expands.
  EXPECT_FALSE(ParseSweepSpec("gamma=0:1:0.01", Base(), 100).ok());
  EXPECT_EQ(ParseSweepSpec("gamma=0:1:0.01", Base(), 101)->size(), 101u);
  EXPECT_FALSE(ParseSweepSpec("gamma=0.1;0.2;0.3", Base(), 2).ok());
  EXPECT_FALSE(ParseSweepSpec("gamma=0.1;0.2,ming=3;4", Base(), 3).ok());
  EXPECT_EQ(ParseSweepSpec("gamma=0.1;0.2,ming=3;4", Base(), 4)->size(), 4u);
  EXPECT_FALSE(ParseSweepSpec("[{}, {}, {}]", Base(), 2).ok());
  EXPECT_EQ(ParseSweepSpec("[{}, {}]", Base(), 2)->size(), 2u);
}

core::SweepReport TinyReport() {
  core::SweepReport report;
  report.runs.resize(2);
  report.runs[0].options = Base();
  report.runs[0].executed = true;
  report.runs[0].used_shared_model = true;
  report.runs[0].clusters.push_back(core::RegCluster{{1, 2, 3}, {0, 4}, {5}});
  report.runs[0].stats.nodes_expanded = 42;
  report.runs[0].stats.clusters_emitted = 1;
  report.runs[1].options = Base();
  report.runs[1].status = util::Status::InvalidArgument("bad gamma");
  report.runs_executed = 1;
  report.index_builds = 1;
  report.nodes_total = 42;
  report.clusters_total = 1;
  return report;
}

TEST(WriteSweepCsvTest, ColumnContractAndRowStates) {
  std::ostringstream out;
  ASSERT_TRUE(WriteSweepCsv(TinyReport(), out).ok());
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("run,gamma,gamma_policy,epsilon,min_genes,"
                     "min_conditions,executed,shared_model,status,"
                     "stop_reason,clusters,nodes_expanded,extensions_tested,"
                     "mine_seconds,wall_seconds\n"),
            0u);
  EXPECT_NE(csv.find("\n0,0.3,stddev,0.7,7,4,1,1,complete,none,1,42,"),
            std::string::npos);
  EXPECT_NE(csv.find("\n1,0.3,stddev,0.7,7,4,0,0,error,none,0,0,"),
            std::string::npos);
}

TEST(WriteSweepJsonTest, CarriesSchemaKeysAndClusters) {
  std::ostringstream out;
  ASSERT_TRUE(WriteSweepJson(TinyReport(), out).ok());
  const std::string json = out.str();
  for (const char* key :
       {"\"sweep\"", "\"runs_total\": 2", "\"runs_executed\": 1",
        "\"first_unfinished\": -1", "\"index_builds\": 1",
        "\"chain\": [1,2,3]", "\"p_genes\": [0,4]", "\"n_genes\": [5]",
        "\"error\": ", "\"executed\": false"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RegisterSweepMetricsTest, StableNamesWithValues) {
  obs::MetricsRegistry registry;
  ASSERT_TRUE(RegisterSweepMetrics(TinyReport(), &registry).ok());
  ASSERT_NE(registry.FindCounter("regcluster_sweep_runs_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("regcluster_sweep_runs_total")->value(), 2);
  EXPECT_EQ(registry.FindCounter("regcluster_sweep_runs_executed")->value(),
            1);
  EXPECT_EQ(registry.FindCounter("regcluster_sweep_nodes_total")->value(),
            42);
  EXPECT_EQ(registry.FindCounter("regcluster_sweep_truncated")->value(), 0);
  ASSERT_NE(registry.FindGauge("regcluster_sweep_wall_seconds"), nullptr);
  // Double registration is a conflict, not a silent overwrite.
  EXPECT_FALSE(RegisterSweepMetrics(TinyReport(), &registry).ok());
}

}  // namespace
}  // namespace io
}  // namespace regcluster
