#include "core/threshold.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "util/math_util.h"

namespace regcluster {
namespace core {

namespace {
// Indexed by GammaPolicy.
constexpr const char* kPolicyNames[] = {"range", "stddev", "mean",
                                        "closest-gap", "absolute"};
}  // namespace

const char* GammaPolicyName(GammaPolicy policy) {
  const auto i = static_cast<size_t>(policy);
  return i < std::size(kPolicyNames) ? kPolicyNames[i] : "?";
}

bool ParseGammaPolicy(const std::string& name, GammaPolicy* policy) {
  for (size_t i = 0; i < std::size(kPolicyNames); ++i) {
    if (name == kPolicyNames[i]) {
      *policy = static_cast<GammaPolicy>(i);
      return true;
    }
  }
  return false;
}

std::string GammaPolicyNames() {
  std::string names;
  for (const char* name : kPolicyNames) {
    names += names.empty() ? name : std::string("|") + name;
  }
  return names;
}

double AbsoluteGamma(const matrix::MatrixStore& data, int gene,
                     const GammaSpec& spec) {
  return AbsoluteGammaSpan(data.row_data(gene), data.num_conditions(), spec);
}

double AbsoluteGammaSpan(const double* values, int n, const GammaSpec& spec) {
  if (spec.policy == GammaPolicy::kAbsolute) return spec.gamma;

  std::vector<double> row;
  row.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    const double v = values[c];
    if (!std::isnan(v)) row.push_back(v);
  }
  if (row.size() < 2) return 0.0;

  switch (spec.policy) {
    case GammaPolicy::kRangeFraction: {
      const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
      return spec.gamma * (*hi - *lo);
    }
    case GammaPolicy::kStdDevFraction:
      return spec.gamma * util::StdDev(row);
    case GammaPolicy::kMeanFraction:
      return spec.gamma * std::fabs(util::Mean(row));
    case GammaPolicy::kClosestGapFraction: {
      std::sort(row.begin(), row.end());
      double total = 0.0;
      for (size_t i = 1; i < row.size(); ++i) total += row[i] - row[i - 1];
      return spec.gamma * total / static_cast<double>(row.size() - 1);
    }
    case GammaPolicy::kAbsolute:
      break;  // handled above
  }
  return spec.gamma;
}

}  // namespace core
}  // namespace regcluster
