// Per-gene regulation threshold policies (Section 3.1).
//
// The paper defines gamma_i as a fraction of the gene's expression range
// (Eq. 4) but notes that "other regulation thresholds, such as the average
// difference between every pair of conditions whose values are closest
// [OP-cluster], normalized threshold [Ji & Tan], average expression value
// [Chen et al.], etc., can be used where appropriate".  This module
// implements that menu; every policy maps (gene profile, gamma) to an
// absolute threshold gamma_i that the RWave model and the validity oracle
// consume.

#ifndef REGCLUSTER_CORE_THRESHOLD_H_
#define REGCLUSTER_CORE_THRESHOLD_H_

#include <bit>
#include <cstdint>
#include <string>

#include "matrix/store.h"

namespace regcluster {
namespace core {

/// How the per-gene regulation threshold gamma_i is derived.
enum class GammaPolicy : int {
  /// gamma_i = gamma * (row max - row min).  Equation 4, the default.
  kRangeFraction = 0,
  /// gamma_i = gamma * stddev(row) -- the normalized threshold of Ji & Tan.
  kStdDevFraction = 1,
  /// gamma_i = gamma * |mean(row)| -- threshold relative to the average
  /// expression level (Chen, Filkov & Skiena).
  kMeanFraction = 2,
  /// gamma_i = gamma * mean adjacent gap of the sorted profile -- the
  /// OP-cluster-style "closest pairs" threshold.  With gamma = 1 this is
  /// exactly their similarity-grouping width.
  kClosestGapFraction = 3,
  /// gamma_i = gamma, taken as an absolute expression difference.
  kAbsolute = 4,
};

/// Returns a stable name for logging / CLI parsing ("range", "stddev",
/// "mean", "closest-gap", "absolute").
const char* GammaPolicyName(GammaPolicy policy);

/// Parses the names accepted by GammaPolicyName; returns false on unknown.
bool ParseGammaPolicy(const std::string& name, GammaPolicy* policy);

/// Every policy name, '|'-separated in enum order ("range|stddev|...").
std::string GammaPolicyNames();

/// A policy plus its scale parameter.
struct GammaSpec {
  GammaPolicy policy = GammaPolicy::kRangeFraction;
  /// Fraction in [0, 1] for the relative policies; an absolute expression
  /// difference (>= 0) for kAbsolute.
  double gamma = 0.1;
};

/// True iff both specs name the same policy and the same gamma bit pattern.
/// Models and the semantic hash key on the bits, so 0.0 and -0.0 are
/// distinct specs although they compare equal; every site deciding whether
/// a model may be shared compares with this.
inline bool SameGammaSpec(const GammaSpec& a, const GammaSpec& b) {
  return a.policy == b.policy &&
         std::bit_cast<uint64_t>(a.gamma) == std::bit_cast<uint64_t>(b.gamma);
}

/// Absolute threshold gamma_i for one gene under the spec.  NaN cells are
/// ignored; an all-NaN or constant row yields 0 for the relative policies.
double AbsoluteGamma(const matrix::MatrixStore& data, int gene,
                     const GammaSpec& spec);

/// Same, over a raw value span.  Lets incremental callers recompute the
/// threshold a model *was* built under from a prefix of an appended row
/// (conditions only ever append at the end, so the first n values of the
/// new row are exactly the old row) without retaining the old matrix.
double AbsoluteGammaSpan(const double* row, int n, const GammaSpec& spec);

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_THRESHOLD_H_
