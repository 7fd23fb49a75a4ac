// Runtime-dispatched SIMD kernel layer for the mining hot path.
//
// The miner's per-node cost is dominated by a handful of dense passes --
// the scored-column sort, the coherence divide, the candidate gather and the
// bitmap word loops -- and each has one entry in the SimdOps table below.
// The table is selected once per process (lazily, on first use):
//
//   * x86-64: AVX2 when the CPU reports it (cpuid via
//     __builtin_cpu_supports), else scalar;
//   * AArch64: NEON (baseline for the ISA);
//   * anything else: portable scalar.
//
// The choice can be pinned with the REGCLUSTER_SIMD environment variable or
// the `--simd=auto|scalar|avx2|neon` CLI flag (both route through
// SetLevel()).  Every kernel's contract is *bit-identical output* to the
// scalar reference -- integer ops exactly, floating point restricted to
// IEEE-exact operations (divide, subtract; never FMA or reassociation) --
// so the mined output is byte-for-byte the same at every level.  The
// forced-scalar differential tests and CI job hold the layer to that
// contract (see DESIGN.md section "SIMD kernel layer").
//
// Layering: this directory depends only on util/bitset.h (the scalar word
// loops are the reference implementations).  The AVX2 kernels live in their
// own translation unit compiled with -mavx2 (see src/util/CMakeLists.txt);
// nothing outside that TU is built with extended ISA flags, so the binary
// stays runnable on any x86-64 machine.

#ifndef REGCLUSTER_UTIL_SIMD_DISPATCH_H_
#define REGCLUSTER_UTIL_SIMD_DISPATCH_H_

#include <cstdint>
#include <string>

#include "util/bitset.h"
#include "util/simd/radix_sort.h"
#include "util/status.h"

namespace regcluster {
namespace util {
namespace simd {

/// Kernel sets, ordered by preference on their home ISA.  Values are stable
/// (exported as the regcluster_simd_level metric).
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// "scalar" / "avx2" / "neon".
const char* LevelName(Level level);

/// Parses a level name as accepted by --simd / REGCLUSTER_SIMD.  "auto"
/// resolves to DetectBestLevel().  InvalidArgument on anything else.
StatusOr<Level> ParseLevel(const std::string& name);

/// Arguments of the scored-column gather (miner FilterCandidate): for each
/// surviving member index i in `idx`, the kernel emits the member's gene id,
/// its cached denominator, and the coherence numerator
/// matrix[row_off[i] + cand] - bases[i].  `row_off` carries each member's
/// precomputed gene-major row offset (gene * num_conditions).  Head
/// positions are deliberately NOT gathered here: most gathered extensions
/// are coherence-pruned and never need them (237,058 of 261,628, 90.6%, on
/// the benchmark's mine_tight; on mine_loose 99.5% fail MinG and are
/// dropped before any gather), so the miner looks positions up lazily when
/// a window actually spawns a child.
struct GatherScoredArgs {
  const int* genes = nullptr;      ///< per member: gene id
  const double* denoms = nullptr;  ///< per member: cached denominator
  const double* bases = nullptr;   ///< per member: row value at the chain head
  const int64_t* row_off = nullptr;  ///< per member: gene * num_conditions
  const double* matrix = nullptr;  ///< row-major expression values
  int cand = 0;                    ///< the candidate condition
};

/// One resolved kernel set.  All functions are non-null.
struct SimdOps {
  Level level;

  /// h[i] /= denom[i] for i in [0, n).  IEEE divide: bit-identical across
  /// levels.
  void (*divide_columns)(double* h, const double* denom, int n);

  /// dst[w] = a[w] & b[w]; dst may alias a or b.
  void (*and_words)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    int words);

  /// dst[w] |= src[w].
  void (*or_words_into)(uint64_t* dst, const uint64_t* src, int words);

  /// dst[w] = src[w]; rows must not overlap.
  void (*copy_words)(uint64_t* dst, const uint64_t* src, int words);

  /// popcount of a & ~b & mask over the row.
  int64_t (*andnot_mask_popcount)(const uint64_t* a, const uint64_t* b,
                                  const uint64_t* mask, int words);

  /// Scored-column gather; appends nothing, writes exactly n entries of each
  /// output column.
  void (*gather_scored)(const GatherScoredArgs& args, int n, const int* idx,
                        int* out_gene, double* out_denom, double* out_h);

  /// Index-sort of a scored column: writes into `order` the permutation of
  /// [0, total) ordered by (h asc, gene asc) and into `sorted_h` the score
  /// column in that order, zero-sign-canonicalized through the key round
  /// trip (see InverseOrderKey; every level emits bit-identical sorted_h).
  /// Preconditions as documented at RadixSortScored.  The scalar level runs
  /// the reference comparator std::sort; accelerated levels run the stable
  /// LSD radix pipeline -- identical output either way, which is what the
  /// differential gate checks.
  void (*sort_scored)(const double* h, const int* gene, int split, int total,
                      int* order, double* sorted_h, SortScratch* scratch);
};

/// The process-wide kernel set.  First call resolves it: REGCLUSTER_SIMD if
/// set and valid (invalid values warn on stderr and fall back to auto), else
/// the best level the CPU supports.  The returned reference is stable until
/// the next SetLevel(); hot paths should cache the pointer per run (the
/// miner caches it in Prepare()).
const SimdOps& Ops();

/// The level Ops() currently resolves to.
Level CurrentLevel();

/// Best level compiled in *and* supported by this CPU.
Level DetectBestLevel();

/// True when `level` is compiled in and supported by this CPU.  kScalar is
/// always available.
bool LevelAvailable(Level level);

/// Pins the process-wide kernel set.  FailedPrecondition when the level is
/// not available on this build/CPU (the current set is left unchanged).
Status SetLevel(Level level);

/// ParseLevel + SetLevel: one call for CLI plumbing ("auto" re-detects).
Status ApplySimdFlag(const std::string& name);

/// Rows narrower than this many words run the inlined scalar word loop
/// instead of dispatching: an indirect call per one- or two-word row costs
/// more than it vectorizes (a 40-condition matrix has 1-word rows), and the
/// bitwise kernels are exact at every level, so the shortcut cannot change
/// output.  The Auto wrappers below apply it; hot paths with a cached
/// SimdOps pointer use them for the per-member row operations.
inline constexpr int kWideRowWords = 8;

inline void AndWordsAuto(const SimdOps& ops, uint64_t* dst, const uint64_t* a,
                         const uint64_t* b, int words) {
  if (words >= kWideRowWords) {
    ops.and_words(dst, a, b, words);
  } else {
    util::AndWords(dst, a, b, words);
  }
}

inline void OrWordsIntoAuto(const SimdOps& ops, uint64_t* dst,
                            const uint64_t* src, int words) {
  if (words >= kWideRowWords) {
    ops.or_words_into(dst, src, words);
  } else {
    util::OrWordsInto(dst, src, words);
  }
}

inline void CopyWordsAuto(const SimdOps& ops, uint64_t* dst,
                          const uint64_t* src, int words) {
  if (words >= kWideRowWords) {
    ops.copy_words(dst, src, words);
  } else {
    util::CopyWords(dst, src, words);
  }
}

inline int64_t AndNotMaskPopcountAuto(const SimdOps& ops, const uint64_t* a,
                                      const uint64_t* b, const uint64_t* mask,
                                      int words) {
  if (words >= kWideRowWords) {
    return ops.andnot_mask_popcount(a, b, mask, words);
  }
  return util::AndNotMaskPopcount(a, b, mask, words);
}

}  // namespace simd
}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_SIMD_DISPATCH_H_
