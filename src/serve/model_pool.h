#ifndef SERD_SERVE_MODEL_POOL_H_
#define SERD_SERVE_MODEL_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/serd.h"
#include "data/er_dataset.h"
#include "obs/metrics.h"

namespace serd::serve {

/// Identity of a warm synthesizer in the pool. Two jobs share one warm
/// entry iff every component matches: the tenant (isolation — tenants
/// never share loaded models even for the same artifact), the artifact
/// directory, the schema fingerprint (a stale artifact for a changed
/// schema must not alias a valid one), and the dataset identity (the
/// synthesizer keeps a pointer to the real dataset it was built over, so
/// an entry is only reusable for jobs over that exact dataset).
struct PoolKey {
  std::string tenant;
  std::string model_dir;
  uint64_t schema_fingerprint = 0;
  /// "kind@scale#data_seed" — the generator inputs that determine the
  /// real dataset bit-for-bit.
  std::string dataset_id;

  /// Canonical map key: fields joined with a separator that cannot occur
  /// in paths or dataset names.
  std::string Token() const;
};

/// One warm entry: the real dataset the synthesizer was built over (the
/// synthesizer borrows a pointer to it, so the entry must own it) plus
/// the fitted synthesizer. Runs are read-only over the fitted models, so
/// any number of jobs run on one entry at once.
struct PoolEntry {
  ERDataset real;
  std::unique_ptr<SerdSynthesizer> synth;
};

struct ModelPoolOptions {
  /// Soft cap on ready entries. Inserting beyond it evicts the
  /// least-recently-acquired *unpinned* entry; when every entry is pinned
  /// by an in-flight job the pool temporarily exceeds the cap rather than
  /// blocking (an admission-controlled scheduler bounds how far).
  size_t capacity = 4;
  /// Counters pool.hits / .misses / .coalesced / .evictions /
  /// .load_failures / .reloads, gauges pool.size / pool.pinned (live
  /// leases — 0 when no job holds an entry), timer pool.load_seconds.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Content fingerprint of the model artifact at `path` (a SERDMDL1 file):
/// an FNV-1a hash over the validated header — format version plus every
/// section's name, size, and payload CRC — without decoding any payload,
/// so probing is cheap relative to a load. Any retrain that changes a
/// single model byte changes a section CRC and therefore the fingerprint;
/// this is the version identity behind ModelPool hot-reload (Acquire's
/// `version` argument and the server's `reload` verb). Errors: whatever
/// artifact::ArtifactReader::Open reports (IOError / InvalidArgument /
/// FailedPrecondition).
Result<uint64_t> ArtifactVersionFingerprint(const std::string& path);

/// Ref-counted LRU of warm SerdSynthesizer artifacts with single-flight
/// loading: the first Acquire() of a key runs the loader while concurrent
/// acquirers of the same key wait for that one load (counted as
/// `pool.coalesced`) instead of re-reading the artifact. A load failure
/// is broadcast to the waiters and the key is removed, so a later
/// Acquire() retries (transient I/O failures don't poison the key).
///
/// Hot-reload: each ready entry remembers the artifact version it was
/// loaded against (0 = unversioned). An Acquire carrying a different
/// non-zero version detaches the stale entry from the pool — in-flight
/// leases keep it alive and finish on the old artifacts; it is destroyed
/// when the last lease releases — and single-flight loads a replacement
/// that is atomically swapped in under the pool lock (`pool.reloads`).
/// Acquires with version 0 never trigger a reload; they hit whatever is
/// resident, so steady-state jobs pay no probe cost and pick up the new
/// entry on their first acquire after the swap.
///
/// Thread-safety: all methods may be called from any thread. The loader
/// runs outside the pool lock (loads are slow; lookups must not stall
/// behind them).
class ModelPool {
 public:
  /// Builds a fully fitted entry for a key (generate/load dataset, fit or
  /// warm-load the synthesizer). Runs outside the pool lock.
  using EntryLoader = std::function<Result<std::unique_ptr<PoolEntry>>()>;

  /// RAII pin on a ready entry. While any Lease is alive the entry cannot
  /// be evicted. Callers run jobs as
  ///   lease.synth()->Synthesize(run_options, &report);
  /// without any lock: the const run writes nothing to the entry, so
  /// leases on one entry run concurrently.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    bool valid() const { return entry_ != nullptr; }
    const SerdSynthesizer* synth() const { return entry_->synth.get(); }
    const ERDataset& real() const { return entry_->real; }

    /// Drops the pin early (idempotent; the destructor calls it).
    void Release();

   private:
    friend class ModelPool;
    Lease(ModelPool* pool, std::shared_ptr<void> slot, PoolEntry* entry)
        : pool_(pool), slot_(std::move(slot)), entry_(entry) {}

    ModelPool* pool_ = nullptr;
    std::shared_ptr<void> slot_;  ///< type-erased Slot keep-alive
    PoolEntry* entry_ = nullptr;
  };

  explicit ModelPool(ModelPoolOptions options);
  ~ModelPool() = default;

  ModelPool(const ModelPool&) = delete;
  ModelPool& operator=(const ModelPool&) = delete;

  /// Returns a pinned lease on the ready entry for `key`, loading it via
  /// `loader` on a miss (single-flight). Returns the loader's error if
  /// the load fails.
  ///
  /// `version` is the artifact fingerprint the caller expects
  /// (ArtifactVersionFingerprint); 0 = "any resident version". A ready
  /// entry whose recorded version differs from a non-zero `version`
  /// triggers the hot-reload swap described on the class. A failed reload
  /// drops the key entirely (the stale entry is already detached); the
  /// next Acquire reloads from disk.
  Result<Lease> Acquire(const PoolKey& key, const EntryLoader& loader,
                        uint64_t version = 0);

  /// Ready + loading entries currently resident.
  size_t size() const;

  /// Live leases across all entries, detached (draining) ones included.
  size_t pinned() const;

 private:
  struct Slot;

  void Unpin(const std::shared_ptr<void>& erased_slot);
  /// Evicts least-recently-acquired unpinned ready slots until the ready
  /// population fits the capacity. Caller holds mu_.
  void EvictIfNeededLocked();

  ModelPoolOptions options_;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  uint64_t tick_ = 0;  ///< LRU clock: bumped on every successful Acquire
  size_t total_pins_ = 0;  ///< live leases (detached slots included)

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_coalesced_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_load_failures_ = nullptr;
  obs::Counter* c_reloads_ = nullptr;
  obs::Gauge* g_size_ = nullptr;
  obs::Gauge* g_pinned_ = nullptr;
  obs::Histogram* h_load_seconds_ = nullptr;
};

}  // namespace serd::serve

#endif  // SERD_SERVE_MODEL_POOL_H_
