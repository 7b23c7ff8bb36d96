#ifndef SERD_SERVE_SERVER_H_
#define SERD_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/serd.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/model_pool.h"
#include "serve/scheduler.h"

namespace serd::serve {

/// The per-job SerdOptions base shared by serd_cli and the server — both
/// front ends must run the pipeline with the same knobs or their outputs
/// diverge (the CI smoke stage diffs a served job against a serd_cli
/// run byte-for-byte). CPU-friendly settings: 3 decode candidates, 5
/// similarity buckets, 2 transformer epochs, 10 GAN epochs, 2 rejection
/// retries.
SerdOptions DefaultJobOptions();

struct ServerOptions {
  int port = 0;  ///< 0 = kernel-assigned (read the bound port back)
  int workers = 2;
  size_t pool_capacity = 4;
  size_t max_queued = 64;
  size_t max_inflight_per_tenant = 8;
  size_t max_job_entities = 200000;
  /// Root seed for derived per-job seeds (jobs without an explicit seed).
  uint64_t seed = 2024;
  /// Base pipeline options for every job; per-job request fields (seed,
  /// dataset, model_dir, rejection) override their SerdOptions
  /// counterparts.
  SerdOptions job_options = DefaultJobOptions();
};

/// The serd_serve front end: a thread-per-connection TCP server speaking
/// length-prefixed JSON (see wire.h), dispatching synthesis jobs onto a
/// JobScheduler and reusing warm models through a ModelPool.
///
/// Verbs (request field "verb"):
///   health      -> {"ok":true,"status":"serving"}
///   stats       -> live metrics snapshot + scheduler/pool gauges
///   synthesize  -> submit a job: {"dataset","scale","data_seed","seed",
///                  "tenant","model_dir","artifact_mode","out","priority",
///                  "seed_key","no_rejection","blocking","deadline_ms",
///                  "wait"}; with
///                  "wait":true (default) blocks until the job finishes
///                  and returns its report, else returns the job id
///                  immediately. "deadline_ms" (0 = none) bounds the
///                  job's total wall clock from admission — an expired
///                  job finishes as DeadlineExceeded whether it was still
///                  queued or already running. The retired fields
///                  "batched_decode" and "decode_precision" are refused
///                  as InvalidArgument, whatever their value.
///   job         -> {"id", "wait"}: query (or block on) a submitted job
///   cancel      -> {"id"}: cancel a submitted job. Queued jobs complete
///                  immediately as "cancelled"; running jobs stop within
///                  one synthesis loop iteration. Returns the post-cancel
///                  job status (a no-op on already-terminal jobs).
///   manifest    -> run manifest of the warm entry for a (tenant,dataset,
///                  model_dir) triple — loads it if cold. Jobs run
///                  concurrently on an entry, so its metrics sum every
///                  job it has run; each job's own figures come back in
///                  the job's response.
///   reload      -> hot-swap the warm entry for a (tenant,dataset,
///                  model_dir) triple against the artifact currently on
///                  disk: fingerprints the artifact, single-flight loads
///                  the new version if it changed, and atomically swaps
///                  it in while in-flight jobs drain on the old entry.
///                  Requires "model_dir". Responds with "version" (the
///                  artifact fingerprint) and "reloaded" (false when the
///                  resident entry already matched).
///   shutdown    -> acknowledges, then stops the server (drains queued
///                  jobs first)
///
/// Every response carries "ok"; failures add "error" (message) and
/// "code" (StatusCodeName). A malformed-but-well-framed request (garbage
/// JSON) gets an InvalidArgument response instead of a hangup, so clients
/// can tell a bad request from a dead server.
class SerdServer {
 public:
  explicit SerdServer(ServerOptions options);
  ~SerdServer();

  SerdServer(const SerdServer&) = delete;
  SerdServer& operator=(const SerdServer&) = delete;

  /// Binds, starts the accept thread. On success port() is the bound port.
  Status Start();
  int port() const { return port_; }

  /// Blocks until a client sends "shutdown" or Stop() is called.
  void Wait();

  /// Stops accepting, drains the scheduler (queued jobs complete), closes
  /// live connections, joins every thread. Idempotent.
  void Stop();

  obs::MetricsRegistry* metrics() { return &metrics_; }

 private:
  /// Everything a synthesize/manifest request declares about its job.
  struct JobParams;
  /// Result facts recorded by the job closure for the response.
  struct JobInfo {
    uint64_t seed = 0;
    size_t a = 0;
    size_t b = 0;
    size_t matches = 0;
    double offline_seconds = 0.0;
    double online_seconds = 0.0;
    bool warm_started = false;
    std::string out_dir;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  obs::Json Handle(const obs::Json& request);
  obs::Json HandleSynthesize(const obs::Json& request);
  obs::Json HandleJob(const obs::Json& request);
  obs::Json HandleCancel(const obs::Json& request);
  obs::Json HandleStats();
  obs::Json HandleManifest(const obs::Json& request);
  obs::Json HandleReload(const obs::Json& request);

  Status ParseJobParams(const obs::Json& request, JobParams* params) const;
  /// Current pool.reloads count (the reload verb reports whether its
  /// Acquire actually swapped).
  uint64_t pool_reloads();
  PoolKey KeyFor(const JobParams& params) const;
  ModelPool::EntryLoader LoaderFor(const JobParams& params) const;
  obs::Json JobStatusJson(const JobStatus& status) const;

  ServerOptions options_;
  obs::MetricsRegistry metrics_;
  ModelPool pool_;
  JobScheduler scheduler_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  ///< open connection fds (for Stop)

  mutable std::mutex info_mu_;
  std::unordered_map<JobId, JobInfo> job_info_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
};

}  // namespace serd::serve

#endif  // SERD_SERVE_SERVER_H_
