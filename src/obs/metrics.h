#ifndef SERD_OBS_METRICS_H_
#define SERD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace serd::obs {

/// Monotonically increasing event count. Add() is thread-safe; integer
/// addition is associative, so the total is independent of which thread
/// (or how many threads) produced each increment.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (component counts, final losses, epsilon).
/// Written from serial pipeline sections; Set() is still atomic so a
/// stray concurrent write is benign rather than a data race.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// first bounds.size() buckets; one implicit overflow bucket catches the
/// rest. Bucket counts are integers, so concurrent Record() calls
/// aggregate thread-count-independently; the running `sum` is a CAS-added
/// double and is only thread-count-reproducible when the recorded values
/// themselves are (which holds for every value histogram in the pipeline —
/// the deterministic runtime makes losses, iteration counts, and attempt
/// counts bit-identical for any pool size). Timing histograms
/// (`timing() == true`) record wall-clock seconds and are excluded from
/// determinism comparisons by contract.
class Histogram {
 public:
  Histogram(std::vector<double> bounds, bool timing);

  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  bool timing() const { return timing_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  bool timing_;
};

/// Canonical latency bounds for timer histograms: 100us..~100s,
/// half-decade steps.
std::vector<double> LatencyBounds();

/// Equal-width bounds {lo, lo+w, ...} with `n` finite buckets over
/// [lo, hi] (plus the overflow bucket). For value histograms such as
/// per-attempt counts or bucket indices.
std::vector<double> LinearBounds(double lo, double hi, int n);

/// Named metrics registry with deterministic (sorted-name) snapshots.
///
/// Lookup calls create the metric on first use and return a stable
/// pointer; callers resolve pointers once (outside hot loops) and record
/// through them. A null registry is the "observability off" state: the
/// null-safe helpers below compile recording sites down to one pointer
/// test, so a disabled pipeline pays no locks, no clock reads, and no
/// allocation.
///
/// Determinism contract (mirrors runtime::ParallelReduce): metrics
/// recorded from parallel regions must either be integer counters (order-
/// free) or be accumulated into per-shard slots keyed by chunk index and
/// folded in ascending shard order by the calling thread before a single
/// Record()/Add() — never summed in thread arrival order. Timing metrics
/// are exempt; they measure the wall clock, which no schedule reproduces.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `bounds` are only used on first creation; later lookups of the same
  /// name return the existing histogram unchanged.
  Histogram* histogram(const std::string& name, std::vector<double> bounds);
  /// Timing histogram over LatencyBounds() (seconds).
  Histogram* timer(const std::string& name);

  struct HistogramCell {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  ///< bounds.size() + 1, overflow last
    uint64_t count = 0;
    double sum = 0.0;
    bool timing = false;
  };

  /// A point-in-time copy, name-sorted (std::map order) so two snapshots
  /// compare and serialize deterministically.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramCell> histograms;
  };

  Snapshot TakeSnapshot() const;

  /// Zeroes every metric (names and bucket layouts are kept).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---- Null-safe recording helpers (the observability-off fast path). ----
// Names are views: the std::string a registry lookup needs is built only
// when there is a registry, so an observability-off site allocates nothing.

inline Counter* GetCounter(MetricsRegistry* r, std::string_view name) {
  return r != nullptr ? r->counter(std::string(name)) : nullptr;
}
inline Gauge* GetGauge(MetricsRegistry* r, std::string_view name) {
  return r != nullptr ? r->gauge(std::string(name)) : nullptr;
}
inline Histogram* GetHistogram(MetricsRegistry* r, std::string_view name,
                               std::vector<double> bounds) {
  return r != nullptr ? r->histogram(std::string(name), std::move(bounds))
                      : nullptr;
}
inline Histogram* GetTimer(MetricsRegistry* r, std::string_view name) {
  return r != nullptr ? r->timer(std::string(name)) : nullptr;
}

inline void Inc(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Add(n);
}
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Record(v);
}

/// Per-shard tallies for deterministic aggregation out of parallel
/// regions: workers add into the slot of their *chunk index* (not their
/// thread id), and Fold() sums the slots in ascending shard order on the
/// calling thread — the same ordered-fold discipline as
/// runtime::ParallelReduce, so the folded total is bit-identical for any
/// pool size. Slots are not padded: each shard is written by exactly one
/// chunk, and the fold happens after the region's barrier.
template <typename T>
class ShardedTally {
 public:
  explicit ShardedTally(size_t shards) : slots_(shards, T{}) {}

  T& slot(size_t shard) { return slots_[shard]; }

  T Fold() const {
    T total{};
    for (const T& s : slots_) total += s;
    return total;
  }

 private:
  std::vector<T> slots_;
};

}  // namespace serd::obs

#endif  // SERD_OBS_METRICS_H_
