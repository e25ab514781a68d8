//===- support/BitSet.h - Small-buffer dynamic bit set ---------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamically sized bit set with a one-word small buffer. PortMask and
/// InstrIndexMask are aliases of this type, lifting the historical 32-bit
/// caps on machine ports and basic instructions per shape problem: sets of
/// up to 64 bits (every shipped machine, and the basic sets of all default
/// profiles) live in the inline word with no heap allocation, while larger
/// universes spill to the heap transparently.
///
/// Semantically a BitSet is an arbitrary-precision unsigned integer whose
/// bit i is element i. All comparison operators order by that integer
/// value, independent of how much storage either operand happens to own —
/// exactly the order the old uint32_t masks induced — so every ordered
/// container, sort, and tie-break in the mapping pipeline behaves
/// bit-identically to the fixed-width era whenever the sets fit in one
/// word. Trailing zero words are never stored (the representation is
/// normalized), which keeps equality, ordering, and hashing O(words).
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SUPPORT_BITSET_H
#define PALMED_SUPPORT_BITSET_H

#include "support/Compat.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace palmed {

class BitSet {
public:
  /// The empty set.
  BitSet() = default;

  /// The singleton {Index}.
  static BitSet bit(size_t Index) {
    BitSet S;
    S.set(Index);
    return S;
  }

  /// The set whose low 64 bits are \p Word, masked to \p NumBits.
  static BitSet fromWord(uint64_t Word, size_t NumBits = 64) {
    BitSet S;
    S.Single = NumBits >= 64 ? Word
                             : (Word & ((uint64_t{1} << NumBits) - 1));
    return S;
  }

  /// The contiguous range [0, NumBits).
  static BitSet firstN(size_t NumBits);

  bool test(size_t Index) const {
    size_t W = Index / 64;
    return W < numWords() && (word(W) >> (Index % 64)) & 1;
  }

  BitSet &set(size_t Index);
  BitSet &reset(size_t Index);
  BitSet &flip(size_t Index) {
    return test(Index) ? reset(Index) : set(Index);
  }

  bool any() const { return numWords() != 0; }
  bool none() const { return !any(); }
  bool empty() const { return none(); }

  /// Number of elements (population count).
  size_t count() const {
    size_t N = 0;
    for (size_t W = 0; W < numWords(); ++W)
      N += popCount(word(W));
    return N;
  }

  /// Smallest element; requires any().
  size_t findFirst() const;
  /// Largest element; requires any().
  size_t findLast() const;

  /// Calls \p Fn(Index) for every element in increasing order.
  template <typename Fn> void forEachSetBit(Fn &&F) const {
    for (size_t W = 0; W < numWords(); ++W)
      for (uint64_t Bits = word(W); Bits; Bits &= Bits - 1)
        F(W * 64 + countTrailingZeros(Bits));
  }

  /// The elements in increasing order.
  std::vector<size_t> toIndices() const {
    std::vector<size_t> Out;
    Out.reserve(count());
    forEachSetBit([&](size_t I) { Out.push_back(I); });
    return Out;
  }

  bool intersects(const BitSet &O) const {
    if (Multi.empty() && O.Multi.empty())
      return (Single & O.Single) != 0;
    size_t N = numWords() < O.numWords() ? numWords() : O.numWords();
    for (size_t W = 0; W < N; ++W)
      if (word(W) & O.word(W))
        return true;
    return false;
  }
  bool isSubsetOf(const BitSet &O) const {
    if (Multi.empty() && O.Multi.empty())
      return (Single & ~O.Single) == 0;
    for (size_t W = 0; W < numWords(); ++W)
      if (word(W) & ~(W < O.numWords() ? O.word(W) : 0))
        return false;
    return true;
  }

  /// Set difference this \ O (the old `A & ~B` idiom without needing a
  /// complement over an explicit universe).
  BitSet without(const BitSet &O) const;

  BitSet &operator|=(const BitSet &O) {
    if (Multi.empty() && O.Multi.empty()) {
      Single |= O.Single;
      return *this;
    }
    auto &M = spill(O.numWords());
    for (size_t W = 0; W < O.numWords(); ++W)
      M[W] |= O.word(W);
    return *this; // OR cannot zero the top word.
  }
  BitSet &operator&=(const BitSet &O);
  BitSet &operator^=(const BitSet &O);

  friend BitSet operator|(BitSet A, const BitSet &B) { return A |= B; }
  friend BitSet operator&(BitSet A, const BitSet &B) { return A &= B; }
  friend BitSet operator^(BitSet A, const BitSet &B) { return A ^= B; }

  BitSet operator<<(size_t Shift) const;
  BitSet operator>>(size_t Shift) const;
  BitSet &operator<<=(size_t Shift) { return *this = *this << Shift; }
  BitSet &operator>>=(size_t Shift) { return *this = *this >> Shift; }

  /// Integer-value comparison (see file comment).
  friend bool operator==(const BitSet &A, const BitSet &B);
  friend bool operator!=(const BitSet &A, const BitSet &B) {
    return !(A == B);
  }
  friend bool operator<(const BitSet &A, const BitSet &B);
  friend bool operator>(const BitSet &A, const BitSet &B) { return B < A; }
  friend bool operator<=(const BitSet &A, const BitSet &B) {
    return !(B < A);
  }
  friend bool operator>=(const BitSet &A, const BitSet &B) {
    return !(A < B);
  }

  /// The value as one word; requires findLast() < 64 (or empty).
  uint64_t toUint64() const;

  /// Stable hash of the value (normalization makes equal sets hash equal
  /// regardless of construction history).
  size_t hash() const;

  /// Human-readable "{0, 3, 17}" form for diagnostics.
  std::string str() const;

private:
  static unsigned countTrailingZeros(uint64_t Bits) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_ctzll(Bits));
#else
    unsigned N = 0;
    for (; !(Bits & 1); Bits >>= 1)
      ++N;
    return N;
#endif
  }

  /// Number of stored (significant) words; the invariant keeps the top
  /// stored word nonzero, so this doubles as the value's word width.
  size_t numWords() const {
    return Multi.empty() ? (Single != 0 ? 1 : 0) : Multi.size();
  }
  uint64_t word(size_t W) const {
    return Multi.empty() ? Single : Multi[W];
  }

  /// Re-establishes the invariants after arbitrary word surgery.
  void normalize();
  /// Grows storage to at least \p Words words (zero-filled) and returns a
  /// mutable view; the caller must normalize() afterwards.
  std::vector<uint64_t> &spill(size_t Words);

  // Invariants: either Multi is empty and the value is Single (possibly
  // 0), or Multi.size() >= 2 with Multi.back() != 0 and Single == 0.
  uint64_t Single = 0;
  std::vector<uint64_t> Multi;
};

inline bool operator==(const BitSet &A, const BitSet &B) {
  if (A.Multi.empty() && B.Multi.empty())
    return A.Single == B.Single;
  if (A.numWords() != B.numWords())
    return false;
  for (size_t W = 0; W < A.numWords(); ++W)
    if (A.word(W) != B.word(W))
      return false;
  return true;
}

inline bool operator<(const BitSet &A, const BitSet &B) {
  if (A.Multi.empty() && B.Multi.empty())
    return A.Single < B.Single;
  if (A.numWords() != B.numWords())
    return A.numWords() < B.numWords();
  for (size_t W = A.numWords(); W-- > 0;)
    if (A.word(W) != B.word(W))
      return A.word(W) < B.word(W);
  return false;
}

} // namespace palmed

namespace std {
template <> struct hash<palmed::BitSet> {
  size_t operator()(const palmed::BitSet &S) const { return S.hash(); }
};
} // namespace std

#endif // PALMED_SUPPORT_BITSET_H
