// Word-level helpers for flat uint64 bitsets.
//
// The core index stores many fixed-width bitmaps (one bit per condition)
// packed into rows of uint64 words; these free functions are the single
// place that knows the word width, so callers never hand-roll shift/mask
// arithmetic.  All rows are length WordsForBits(n); bits >= n are zero by
// construction and every operation here preserves that invariant (the only
// writer of all-ones rows, FillOnes, masks the tail word).

#ifndef REGCLUSTER_UTIL_BITSET_H_
#define REGCLUSTER_UTIL_BITSET_H_

#include <bit>
#include <cstdint>

namespace regcluster {
namespace util {

inline constexpr int kBitsPerWord = 64;

/// Number of uint64 words needed to hold `bits` bits (>= 0).
inline constexpr int WordsForBits(int bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

inline void SetBit(uint64_t* words, int bit) {
  words[bit >> 6] |= uint64_t{1} << (bit & 63);
}

inline bool TestBit(const uint64_t* words, int bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}

/// Sets the first `bits` bits and clears any tail bits of the last word.
inline void FillOnes(uint64_t* words, int bits) {
  const int full = bits >> 6;
  for (int w = 0; w < full; ++w) words[w] = ~uint64_t{0};
  if (bits & 63) words[full] = (uint64_t{1} << (bits & 63)) - 1;
}

/// Calls `fn(bit)` for every set bit of `words[0..num_words)`, ascending.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, int num_words, Fn&& fn) {
  for (int w = 0; w < num_words; ++w) {
    uint64_t word = words[w];
    while (word) {
      fn(w * kBitsPerWord + std::countr_zero(word));
      word &= word - 1;  // clear lowest set bit
    }
  }
}

// Word-loop primitives of the index hot path.  These are the portable scalar
// reference implementations; util/simd/ dispatches to vector versions of the
// same contracts, and the forced-scalar differential gate compares the two
// (see DESIGN.md).  Keeping the scalar bodies here -- with no simd include --
// means every non-dispatched caller shares one source of truth.

/// dst[w] = a[w] & b[w].  `dst` may alias `a` or `b`.
inline void AndWords(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     int words) {
  for (int w = 0; w < words; ++w) dst[w] = a[w] & b[w];
}

/// dst[w] |= src[w].
inline void OrWordsInto(uint64_t* dst, const uint64_t* src, int words) {
  for (int w = 0; w < words; ++w) dst[w] |= src[w];
}

/// dst[w] = src[w].  Rows must not overlap.
inline void CopyWords(uint64_t* dst, const uint64_t* src, int words) {
  for (int w = 0; w < words; ++w) dst[w] = src[w];
}

/// Population count of the row (the count-first MinG test of miner
/// FilterCandidate: a candidate's member bitmap, before any gather).
inline int PopcountWords(const uint64_t* a, int words) {
  int count = 0;
  for (int w = 0; w < words; ++w) count += std::popcount(a[w]);
  return count;
}

/// Population count of a[w] & ~b[w] & mask[w] over the row (the pruning-2
/// drop counter of miner PrepareNode: regulation-linked but MinC-cut).
inline int64_t AndNotMaskPopcount(const uint64_t* a, const uint64_t* b,
                                  const uint64_t* mask, int words) {
  int64_t count = 0;
  for (int w = 0; w < words; ++w) count += std::popcount(a[w] & ~b[w] & mask[w]);
  return count;
}

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_BITSET_H_
