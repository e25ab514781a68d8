//===- support/BitSet.cpp - Small-buffer dynamic bit set ------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/BitSet.h"

#include <algorithm>
#include <cassert>

using namespace palmed;

BitSet BitSet::firstN(size_t NumBits) {
  BitSet S;
  if (NumBits == 0)
    return S;
  size_t Words = (NumBits + 63) / 64;
  if (Words == 1) {
    S.Single = NumBits >= 64 ? ~uint64_t{0}
                             : ((uint64_t{1} << NumBits) - 1);
    return S;
  }
  auto &M = S.spill(Words);
  for (size_t W = 0; W + 1 < Words; ++W)
    M[W] = ~uint64_t{0};
  size_t Rem = NumBits % 64;
  M[Words - 1] = Rem == 0 ? ~uint64_t{0} : ((uint64_t{1} << Rem) - 1);
  S.normalize();
  return S;
}

std::vector<uint64_t> &BitSet::spill(size_t Words) {
  if (Multi.empty()) {
    Multi.assign(std::max<size_t>(Words, 1), 0);
    Multi[0] = Single;
    Single = 0;
  } else if (Multi.size() < Words) {
    Multi.resize(Words, 0);
  }
  return Multi;
}

void BitSet::normalize() {
  if (Multi.empty())
    return;
  while (!Multi.empty() && Multi.back() == 0)
    Multi.pop_back();
  if (Multi.size() <= 1) {
    Single = Multi.empty() ? 0 : Multi[0];
    Multi.clear();
  }
}

BitSet &BitSet::set(size_t Index) {
  size_t W = Index / 64;
  uint64_t Bit = uint64_t{1} << (Index % 64);
  if (W == 0 && Multi.empty()) {
    Single |= Bit;
    return *this;
  }
  spill(W + 1)[W] |= Bit;
  return *this; // Setting a bit cannot create trailing zero words.
}

BitSet &BitSet::reset(size_t Index) {
  size_t W = Index / 64;
  uint64_t Bit = uint64_t{1} << (Index % 64);
  if (W >= numWords())
    return *this;
  if (Multi.empty()) {
    Single &= ~Bit;
  } else {
    Multi[W] &= ~Bit;
    normalize();
  }
  return *this;
}

size_t BitSet::findFirst() const {
  assert(any() && "findFirst on empty set");
  for (size_t W = 0;; ++W)
    if (uint64_t Bits = word(W))
      return W * 64 + countTrailingZeros(Bits);
}

size_t BitSet::findLast() const {
  assert(any() && "findLast on empty set");
  size_t W = numWords() - 1;
  uint64_t Bits = word(W);
  size_t High = 63;
  while (!(Bits >> High))
    --High;
  return W * 64 + High;
}

BitSet BitSet::without(const BitSet &O) const {
  BitSet Out = *this;
  if (Out.Multi.empty()) {
    Out.Single &= ~O.word(0); // O.word(0) is 0 when O is empty.
    return Out;
  }
  size_t N = std::min(Out.Multi.size(), O.numWords());
  for (size_t W = 0; W < N; ++W)
    Out.Multi[W] &= ~O.word(W);
  Out.normalize();
  return Out;
}

BitSet &BitSet::operator&=(const BitSet &O) {
  if (Multi.empty()) {
    Single &= O.word(0);
    return *this;
  }
  for (size_t W = 0; W < Multi.size(); ++W)
    Multi[W] &= W < O.numWords() ? O.word(W) : 0;
  normalize();
  return *this;
}

BitSet &BitSet::operator^=(const BitSet &O) {
  if (Multi.empty() && O.numWords() <= 1) {
    Single ^= O.word(0);
    return *this;
  }
  auto &M = spill(O.numWords());
  for (size_t W = 0; W < O.numWords(); ++W)
    M[W] ^= O.word(W);
  normalize();
  return *this;
}

BitSet BitSet::operator<<(size_t Shift) const {
  BitSet Out;
  if (none())
    return Out;
  size_t WordShift = Shift / 64, BitShift = Shift % 64;
  size_t N = numWords();
  auto &M = Out.spill(N + WordShift + 1);
  for (size_t W = 0; W < N; ++W) {
    uint64_t V = word(W);
    M[W + WordShift] |= V << BitShift;
    if (BitShift)
      M[W + WordShift + 1] |= V >> (64 - BitShift);
  }
  Out.normalize();
  return Out;
}

BitSet BitSet::operator>>(size_t Shift) const {
  BitSet Out;
  size_t WordShift = Shift / 64, BitShift = Shift % 64;
  size_t N = numWords();
  if (WordShift >= N)
    return Out;
  auto &M = Out.spill(N - WordShift);
  for (size_t W = WordShift; W < N; ++W) {
    uint64_t V = word(W);
    M[W - WordShift] |= V >> BitShift;
    if (BitShift && W - WordShift > 0)
      M[W - WordShift - 1] |= V << (64 - BitShift);
  }
  Out.normalize();
  return Out;
}

uint64_t BitSet::toUint64() const {
  assert(numWords() <= 1 && "value does not fit in 64 bits");
  return word(0);
}

size_t BitSet::hash() const {
  // FNV-1a over the significant words; normalization guarantees equal
  // values visit identical word sequences.
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t W = 0; W < numWords(); ++W) {
    uint64_t V = word(W);
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  return static_cast<size_t>(H ^ numWords());
}

std::string BitSet::str() const {
  std::string Out = "{";
  bool First = true;
  forEachSetBit([&](size_t I) {
    if (!First)
      Out += ", ";
    First = false;
    Out += std::to_string(I);
  });
  Out += "}";
  return Out;
}
