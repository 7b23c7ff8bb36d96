#include "serve/model_pool.h"

#include "artifact/artifact_file.h"
#include "common/timer.h"

namespace serd::serve {

Result<uint64_t> ArtifactVersionFingerprint(const std::string& path) {
  Result<artifact::ArtifactReader> reader =
      artifact::ArtifactReader::Open(path);
  if (!reader.ok()) return reader.status();
  // FNV-1a over the validated header: format version + every section's
  // name/size/CRC. Payloads are covered transitively by their CRCs, so no
  // payload is decoded to compute the version identity.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(artifact::kArtifactFormatVersion);
  for (const auto& section : reader.value().sections()) {
    for (char ch : section.name) {
      h ^= static_cast<uint8_t>(ch);
      h *= 1099511628211ULL;
    }
    mix(section.size);
    mix(section.crc);
  }
  return h;
}

std::string PoolKey::Token() const {
  // \x1f (ASCII unit separator) cannot appear in tenant names, paths, or
  // dataset ids, so the join is collision-free.
  std::string token;
  token.reserve(tenant.size() + model_dir.size() + dataset_id.size() + 24);
  token += tenant;
  token += '\x1f';
  token += model_dir;
  token += '\x1f';
  token += std::to_string(schema_fingerprint);
  token += '\x1f';
  token += dataset_id;
  return token;
}

struct ModelPool::Slot {
  enum class State { kLoading, kReady };
  State state = State::kLoading;
  std::unique_ptr<PoolEntry> entry;  ///< set when kReady
  Status error;    ///< the load failure, for waiters (slot then removed)
  bool failed = false;
  size_t pins = 0;
  uint64_t last_used = 0;
  /// Artifact fingerprint this entry was loaded against; 0 = the loading
  /// Acquire did not carry a version (steady-state jobs). A non-zero
  /// Acquire version that differs detaches the slot and reloads.
  uint64_t version = 0;
};

ModelPool::ModelPool(ModelPoolOptions options) : options_(std::move(options)) {
  if (options_.capacity < 1) options_.capacity = 1;
  obs::MetricsRegistry* m = options_.metrics;
  c_hits_ = obs::GetCounter(m, "pool.hits");
  c_misses_ = obs::GetCounter(m, "pool.misses");
  c_coalesced_ = obs::GetCounter(m, "pool.coalesced");
  c_evictions_ = obs::GetCounter(m, "pool.evictions");
  c_load_failures_ = obs::GetCounter(m, "pool.load_failures");
  c_reloads_ = obs::GetCounter(m, "pool.reloads");
  g_size_ = obs::GetGauge(m, "pool.size");
  g_pinned_ = obs::GetGauge(m, "pool.pinned");
  h_load_seconds_ = obs::GetTimer(m, "pool.load_seconds");
}

ModelPool::Lease& ModelPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    slot_ = std::move(other.slot_);
    entry_ = other.entry_;
    other.pool_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

void ModelPool::Lease::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(slot_);
    pool_ = nullptr;
    slot_.reset();
    entry_ = nullptr;
  }
}

void ModelPool::Unpin(const std::shared_ptr<void>& erased_slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto* slot = static_cast<Slot*>(erased_slot.get());
  if (slot->pins > 0) {
    --slot->pins;
    if (total_pins_ > 0) --total_pins_;
    obs::Set(g_pinned_, static_cast<double>(total_pins_));
  }
  // A pin released over capacity (every entry was pinned when the last
  // insert happened) is the deferred eviction point.
  EvictIfNeededLocked();
}

void ModelPool::EvictIfNeededLocked() {
  size_t ready = 0;
  for (const auto& [token, slot] : slots_) {
    if (slot->state == Slot::State::kReady) ++ready;
  }
  while (ready > options_.capacity) {
    // Victim: least-recently-acquired unpinned ready slot.
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      Slot& slot = *it->second;
      if (slot.state != Slot::State::kReady || slot.pins > 0) continue;
      if (victim == slots_.end() ||
          slot.last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == slots_.end()) return;  // everything pinned: over-cap for now
    slots_.erase(victim);
    --ready;
    obs::Inc(c_evictions_);
  }
  obs::Set(g_size_, static_cast<double>(slots_.size()));
}

Result<ModelPool::Lease> ModelPool::Acquire(const PoolKey& key,
                                            const EntryLoader& loader,
                                            uint64_t version) {
  const std::string token = key.Token();
  std::shared_ptr<Slot> slot;
  bool is_reload = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = slots_.find(token);
      if (it == slots_.end()) break;  // miss: this thread loads
      slot = it->second;
      if (slot->state == Slot::State::kReady) {
        if (version != 0 && slot->version != version) {
          // Stale for the requested artifact version: detach the old slot
          // — in-flight leases keep it alive and finish on the old
          // artifacts; it is destroyed when the last one releases — and
          // fall through to load the replacement under the same token
          // (waiters that arrive meanwhile coalesce on the new load).
          slots_.erase(it);
          is_reload = true;
          break;
        }
        ++slot->pins;
        ++total_pins_;
        slot->last_used = ++tick_;
        obs::Inc(c_hits_);
        obs::Set(g_pinned_, static_cast<double>(total_pins_));
        return Lease(this, std::shared_ptr<void>(slot, slot.get()),
                     slot->entry.get());
      }
      // Someone else is loading this key: wait for their outcome instead
      // of re-reading the artifact (single flight).
      obs::Inc(c_coalesced_);
      load_cv_.wait(lock, [&slot] {
        return slot->state == Slot::State::kReady || slot->failed;
      });
      if (slot->failed) return slot->error;
      // Ready now — loop back through the map in case it was evicted
      // between the notify and this wake-up (then this thread reloads),
      // and to apply the version check against the fresh slot.
      slot.reset();
    }
    slot = std::make_shared<Slot>();
    slots_.emplace(token, slot);
    obs::Inc(c_misses_);
    obs::Set(g_size_, static_cast<double>(slots_.size()));
  }

  WallTimer timer;
  Result<std::unique_ptr<PoolEntry>> loaded = loader();
  obs::Observe(h_load_seconds_, timer.Seconds());

  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded.ok()) {
    slot->failed = true;
    slot->error = loaded.status();
    slots_.erase(token);  // later Acquires retry; waiters hold the shared_ptr
    obs::Inc(c_load_failures_);
    obs::Set(g_size_, static_cast<double>(slots_.size()));
    lock.unlock();
    load_cv_.notify_all();
    return loaded.status();
  }
  slot->entry = std::move(loaded.value());
  slot->state = Slot::State::kReady;
  slot->pins = 1;
  ++total_pins_;
  slot->last_used = ++tick_;
  slot->version = version;
  if (is_reload) obs::Inc(c_reloads_);
  obs::Set(g_pinned_, static_cast<double>(total_pins_));
  EvictIfNeededLocked();
  Lease lease(this, std::shared_ptr<void>(slot, slot.get()),
              slot->entry.get());
  lock.unlock();
  load_cv_.notify_all();
  return lease;
}

size_t ModelPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

size_t ModelPool::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_pins_;
}

}  // namespace serd::serve
