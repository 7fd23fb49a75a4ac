// Unit tests for the flat uint64 bitset helpers, with particular attention
// to the word boundary (bits 63/64/65) and the tail-word masking invariant
// FillOnes promises.

#include "util/bitset.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace regcluster {
namespace util {
namespace {

TEST(BitsetTest, WordsForBits) {
  EXPECT_EQ(WordsForBits(0), 0);
  EXPECT_EQ(WordsForBits(1), 1);
  EXPECT_EQ(WordsForBits(63), 1);
  EXPECT_EQ(WordsForBits(64), 1);
  EXPECT_EQ(WordsForBits(65), 2);
  EXPECT_EQ(WordsForBits(128), 2);
  EXPECT_EQ(WordsForBits(129), 3);
}

TEST(BitsetTest, SetAndTestRoundTrip) {
  std::vector<uint64_t> words(static_cast<size_t>(WordsForBits(130)), 0);
  const int probes[] = {0, 1, 62, 63, 64, 65, 127, 128, 129};
  for (int b : probes) SetBit(words.data(), b);
  for (int b = 0; b < 130; ++b) {
    const bool expected =
        std::find(std::begin(probes), std::end(probes), b) != std::end(probes);
    EXPECT_EQ(TestBit(words.data(), b), expected) << "bit " << b;
  }
}

TEST(BitsetTest, SetBitIsIdempotent) {
  uint64_t word = 0;
  SetBit(&word, 5);
  SetBit(&word, 5);
  EXPECT_EQ(word, uint64_t{1} << 5);
}

TEST(BitsetTest, FillOnesMasksTheTailWord) {
  for (int bits : {1, 63, 64, 65, 100, 128, 130}) {
    std::vector<uint64_t> words(static_cast<size_t>(WordsForBits(bits)),
                                ~uint64_t{0});  // dirty start
    FillOnes(words.data(), bits);
    for (int b = 0; b < bits; ++b) {
      EXPECT_TRUE(TestBit(words.data(), b)) << "bits=" << bits << " b=" << b;
    }
    // Bits beyond `bits` in the tail word must be zero.
    const int tail = bits % kBitsPerWord;
    if (tail != 0) {
      EXPECT_EQ(words.back() >> tail, 0u) << "bits=" << bits;
    }
  }
}

TEST(BitsetTest, ForEachSetBitVisitsAscending) {
  std::vector<uint64_t> words(3, 0);
  const std::vector<int> expected = {0, 31, 63, 64, 100, 128, 191};
  for (int b : expected) SetBit(words.data(), b);
  std::vector<int> seen;
  ForEachSetBit(words.data(), 3, [&](int b) { seen.push_back(b); });
  EXPECT_EQ(seen, expected);
}

TEST(BitsetTest, ForEachSetBitOnEmptyAndZeroWords) {
  std::vector<uint64_t> words(2, 0);
  int calls = 0;
  ForEachSetBit(words.data(), 2, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  ForEachSetBit(words.data(), 0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(BitsetTest, ForEachSetBitFullWords) {
  std::vector<uint64_t> words(2, ~uint64_t{0});
  int calls = 0;
  int last = -1;
  ForEachSetBit(words.data(), 2, [&](int b) {
    EXPECT_EQ(b, last + 1);  // dense ascending
    last = b;
    ++calls;
  });
  EXPECT_EQ(calls, 128);
}

TEST(BitsetTest, PopcountWordsMatchesPerBitLoop) {
  const auto per_bit = [](const std::vector<uint64_t>& row) {
    int count = 0;
    for (size_t b = 0; b < row.size() * kBitsPerWord; ++b) {
      count += TestBit(row.data(), static_cast<int>(b)) ? 1 : 0;
    }
    return count;
  };
  const uint64_t high = uint64_t{1} << 63;
  const std::vector<std::vector<uint64_t>> rows = {
      {},
      {0},
      {1},
      {high},
      {~uint64_t{0}},
      {0x8000000000000001ULL, 0, high, 0xF0F0F0F0F0F0F0F0ULL},
      {~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}},
      {high, high, high, high, high},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(PopcountWords(row.data(), static_cast<int>(row.size())),
              per_bit(row))
        << row.size() << "-word row";
  }
  // A prefix counts only its own words.
  const std::vector<uint64_t> row = {~uint64_t{0}, high, 0x5ULL};
  EXPECT_EQ(PopcountWords(row.data(), 0), 0);
  EXPECT_EQ(PopcountWords(row.data(), 1), 64);
  EXPECT_EQ(PopcountWords(row.data(), 2), 65);
  EXPECT_EQ(PopcountWords(row.data(), 3), 67);
}

}  // namespace
}  // namespace util
}  // namespace regcluster
