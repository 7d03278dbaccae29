// Copyright 2026 The vaolib Authors.
// CachingFunction: function-result caching layered over the VAO interface.
//
// Sections 2 and 3.1 of the paper note that function caches (Hellerstein &
// Naughton [20]) are orthogonal to VAOs and can be combined with them. This
// module is that combination for continuous queries: in a CQ, the same
// (args) pair recurs across stream ticks whenever an input revisits a value,
// and the *bounds already paid for* on a previous tick are still sound. A
// CachingFunction remembers, per argument vector, the tightest bounds any
// result object reached, and
//   * serves a zero-cost converged object when the cached bounds are already
//     below the function's minWidth, and
//   * otherwise starts a fresh object whose visible bounds are the running
//     intersection of its own bounds with the cached ones, writing the final
//     bounds back when the object is destroyed.
//
// Concurrency: the store is sharded by argument-vector hash; each shard has
// its own reader-writer lock, LRU list, and atomic hit/miss counters
// (aggregated on read, so the totals stay exact). A Lookup MISS -- the hot
// case for cold working sets, hit concurrently by every pool worker during
// InvokeAll -- takes only the shard's shared lock and bumps an atomic, so
// misses never serialize behind each other; only hits (which must splice
// the LRU list) and Updates take the exclusive lock. Lookup/Update -- and
// therefore CachingFunction::Invoke() and result-object destruction, which
// writes bounds back -- are safe from any thread, including pool workers
// (common/thread_pool.h).

#ifndef VAOLIB_VAO_FUNCTION_CACHE_H_
#define VAOLIB_VAO_FUNCTION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "vao/result_object.h"

namespace vaolib::vao {

/// \brief Sharded LRU store of the best bounds seen per argument vector.
/// Shared (via shared_ptr) between the function and its live result objects
/// so write-back on object destruction is always safe -- even when the
/// destruction happens on a worker thread while other threads look up.
class BoundsCache {
 public:
  struct Entry {
    Bounds bounds;
    double min_width = 0.0;
  };

  /// \p capacity is the total entry budget, split evenly across
  /// \p shard_count mutex-guarded shards (clamped so each shard holds at
  /// least one entry). Eviction is LRU *per shard*: an adversarial hash
  /// skew can evict earlier than a global LRU would, which is an accepted
  /// approximation -- soundness never depends on what the cache retains.
  explicit BoundsCache(std::size_t capacity, std::size_t shard_count = 16);

  /// Returns the cached entry for \p args, refreshing its LRU position.
  /// Misses probe under the shard's shared lock only (concurrent misses do
  /// not serialize); hits upgrade to the exclusive lock for the LRU splice,
  /// re-checking the entry in between (it may have been evicted, in which
  /// case the lookup is a miss after all).
  std::optional<Entry> Lookup(const std::vector<double>& args);

  /// Records \p bounds for \p args, intersecting with any existing entry
  /// (both are sound, so the intersection is sound and at least as tight).
  /// Evicts the least-recently-used entry of the shard beyond its capacity.
  void Update(const std::vector<double>& args, const Bounds& bounds,
              double min_width);

  /// \brief Per-shard activity counters, as exposed by PerShardStats().
  struct ShardStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// \name Aggregated over shards under their locks: exact, not approximate,
  /// once concurrent writers have quiesced.
  /// @{
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// @}

  /// Snapshot of every shard's counters, in shard order (observability
  /// support: exposes the skew the sharded design trades for concurrency).
  std::vector<ShardStats> PerShardStats() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  using LruList = std::list<std::vector<double>>;
  struct Slot {
    Entry entry;
    LruList::iterator lru_position;
  };
  struct Shard {
    /// Shared for miss probes, exclusive for hits (LRU splice) and Updates.
    mutable std::shared_mutex mutex;
    std::map<std::vector<double>, Slot> entries;
    LruList lru;  // front = most recent
    /// Atomic so the miss path (shared lock) and stat readers (no lock at
    /// all) never contend on the exclusive lock.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  Shard& ShardFor(const std::vector<double>& args);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// \brief Caching decorator over a VariableAccuracyFunction.
///
/// The inner function is borrowed and must outlive this object; result
/// objects returned by Invoke() may outlive the CachingFunction itself (the
/// cache is shared-owned). Invoke() is safe to call concurrently as long as
/// the inner function's Invoke() is (true for all solver-backed functions in
/// this library), so cached functions work under InvokeAll and the batch
/// operator paths.
class CachingFunction : public VariableAccuracyFunction {
 public:
  CachingFunction(const VariableAccuracyFunction* inner,
                  std::size_t capacity = 4096);

  const std::string& name() const override { return name_; }
  int arity() const override { return inner_->arity(); }
  Result<ResultObjectPtr> Invoke(const std::vector<double>& args,
                                 WorkMeter* meter) const override;
  double min_width() const override { return inner_->min_width(); }

  const BoundsCache& cache() const { return *cache_; }

 private:
  const VariableAccuracyFunction* inner_;
  std::string name_;
  std::shared_ptr<BoundsCache> cache_;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_FUNCTION_CACHE_H_
