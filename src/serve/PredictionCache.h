//===- serve/PredictionCache.h - Sharded prediction cache ------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory prediction cache fronting a served mapping, 16-way
/// sharded: entries are keyed by the *kernel text* as received on the
/// wire, so a cache hit costs one string hash and one map probe — no
/// kernel parsing, no resource scan. The caller predicts a miss outside
/// the cache and publishes the result; the first publish of a key wins,
/// so two connections racing on the same kernel at worst duplicate
/// deterministic work and both serve the one stored entry.
///
/// Parse failures and unsupported kernels are cached too: hostile or
/// sloppy clients repeating a bad kernel must not re-pay the parse on
/// every request.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SERVE_PREDICTIONCACHE_H
#define PALMED_SERVE_PREDICTIONCACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace palmed {
namespace serve {

/// A cached per-kernel prediction (also caches the failure modes).
struct Prediction {
  enum class Status : uint8_t { Ok = 0, ParseError = 1, Unsupported = 2 };
  Status S = Status::Ok;
  double Ipc = 0.0;
  /// Co-bottleneck resource ids, most loaded first.
  std::vector<uint32_t> Bottlenecks;
  /// The answer pre-encoded as protocol bytes (one KernelAnswer record),
  /// so a cache hit serves a batch slot with a single append — no
  /// per-occurrence struct building or string encoding.
  std::string Wire;
};

/// Sharded, thread-safe cache: kernel text -> Prediction. Returned
/// pointers are valid for the cache's lifetime: entries are never erased
/// or mutated once published, and unordered_map values are address-stable.
class PredictionCache {
public:
  /// The cached prediction for \p KernelText, or null on a miss.
  const Prediction *lookup(const std::string &KernelText) const;

  /// Stores \p P under \p KernelText unless the key is already present
  /// (first insert wins; a later \p P is dropped). Returns the stored
  /// entry and whether this call inserted it.
  std::pair<const Prediction *, bool> publish(const std::string &KernelText,
                                              Prediction &&P);

  /// Number of entries across all shards.
  size_t size() const;

private:
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, Prediction> Done;
  };
  static constexpr size_t NumShards = 16;

  Shard &shardFor(const std::string &Key);
  const Shard &shardFor(const std::string &Key) const;

  Shard Shards[NumShards];
};

} // namespace serve
} // namespace palmed

#endif // PALMED_SERVE_PREDICTIONCACHE_H
