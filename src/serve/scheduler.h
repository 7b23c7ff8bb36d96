#ifndef SERD_SERVE_SCHEDULER_H_
#define SERD_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace serd::serve {

/// Knobs of the serving job scheduler (DESIGN.md Section 5i).
struct SchedulerOptions {
  /// Worker threads executing jobs (the runtime::ThreadPool size).
  int workers = 2;
  /// Admission control: jobs waiting for a worker beyond this are
  /// rejected with ResourceExhausted ("backpressure at the front door" —
  /// a bounded queue keeps worst-case latency bounded too).
  size_t max_queued = 64;
  /// Admission control: one tenant may hold at most this many admitted
  /// (queued + running) jobs, so a single noisy tenant cannot occupy the
  /// whole queue.
  size_t max_inflight_per_tenant = 8;
  /// Admission control: jobs declaring more target entities than this are
  /// rejected outright with InvalidArgument (0 = unlimited). Oversize
  /// work belongs in a batch pipeline, not the interactive queue.
  size_t max_job_entities = 200000;
  /// Root seed for derived per-job seeds (see JobSpec::seed_key).
  uint64_t seed = 2024;
  /// Observability sink (not owned; nullptr = off): counters
  /// scheduler.submitted / .completed / .failed / .cancelled /
  /// .deadline_exceeded / .fairshare_preemptions /
  /// .rejected_{queue_full,tenant_cap,oversize,shutdown}, timers
  /// scheduler.queue_seconds / .run_seconds, histogram
  /// scheduler.tenant_wait_ms (per-pickup queue wait — the starvation
  /// signal fair-share bounds), gauge scheduler.queue_depth.
  obs::MetricsRegistry* metrics = nullptr;
};

using JobId = uint64_t;

enum class JobState {
  kQueued,
  kRunning,
  kDone,    ///< work function returned OK
  kFailed,  ///< work function returned an error (or the job was dropped)
  kCancelled,         ///< cancelled via Cancel() before/while running
  kDeadlineExceeded,  ///< deadline_ms elapsed in queue or mid-run
};

const char* JobStateName(JobState state);

/// True for the states a job can never leave (Wait() returns, slots are
/// released, the final status is meaningful).
bool IsTerminalJobState(JobState state);

/// What a caller declares about a job at submission. The scheduler only
/// needs scheduling-relevant facts; the work itself is an opaque closure.
struct JobSpec {
  std::string tenant = "default";
  /// Higher runs first; FIFO within one priority class.
  int priority = 0;
  /// Declared size (target entities) for oversize admission control.
  size_t entities = 0;
  /// Identity feeding the derived per-job seed: the seed is a pure
  /// function of (SchedulerOptions::seed, seed_key), NOT of arrival order
  /// or worker assignment, so resubmitting the same job set in any order
  /// at any worker count reproduces every job bit-identically. Empty
  /// selects "tenant/<job id>" (deterministic only for a fixed submission
  /// order — callers wanting order-independence pass an explicit key).
  std::string seed_key{};
  /// Wall-clock budget from admission, in milliseconds (0 = none). A job
  /// still queued when it elapses completes immediately with
  /// DeadlineExceeded at dequeue (cause "deadline_expired_in_queue"); a
  /// job already running has its cancel token tripped and stops within
  /// one synthesis loop iteration (cause "deadline_expired_running").
  int64_t deadline_ms = 0;
};

/// Handed to the work function when a worker picks the job up.
struct JobContext {
  JobId id = 0;
  /// Derived deterministic seed (ShardedRng::DeriveSeed idiom over the
  /// FNV-1a hash of the seed key).
  uint64_t seed = 0;
  std::string tenant;
  /// The job's cancellation token (never null inside a work function):
  /// trips on Cancel() or on an armed deadline elapsing. Work should
  /// poll it cooperatively (pass it to Synthesize) and return its cause.
  const CancelToken* cancel = nullptr;
};

/// Point-in-time view of one job's lifecycle.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  Status status;  ///< meaningful once the state is terminal
  std::string tenant;
  /// Why the job left the normal path; empty for done/failed jobs.
  /// One of "client_cancel", "deadline_expired_in_queue",
  /// "deadline_expired_running" — surfaced in the job JSON so callers can
  /// tell an in-queue expiry from a mid-run one.
  std::string cause;
  double queue_seconds = 0.0;  ///< admission -> worker pickup
  double run_seconds = 0.0;    ///< worker pickup -> completion
};

/// A bounded, fair-share job queue over the PR-1 runtime::ThreadPool.
///
/// Submission is admission-controlled (queue bound, per-tenant in-flight
/// cap, oversize rejection) and returns a JobId. Workers drain across
/// tenants by deficit round-robin (DRR): each tenant keeps its own
/// priority queue ((-priority, id) ordered — highest priority first, FIFO
/// within a class), and a pick serves the tenant whose head job becomes
/// eligible after the fewest whole round-robin rotations, each rotation
/// granting every backlogged tenant one unit of credit against its head
/// job's cost (max(1, declared entities)). A tenant flooding the queue
/// therefore cannot starve a light tenant: the light tenant's head
/// accumulates credit every rotation and is served within a bounded
/// number of picks, and service is cost-proportional (a tenant submitting
/// 10x-sized jobs is served 10x less often). With a single tenant DRR
/// degenerates to the plain (-priority, id) order of PR 6. Scheduling
/// order never affects job *output*: per-job seeds are content-keyed
/// (seed_key), so released bytes are independent of arrival order, worker
/// count, and tenant mix.
///
/// Every admitted job reaches a terminal state exactly once: it runs to
/// completion (including during a drain shutdown), expires at dequeue
/// (DeadlineExceeded), is cancelled (Cancel()), or is failed with
/// Unavailable when the scheduler shuts down without draining.
///
/// Thread-safety: all public methods may be called from any thread,
/// including from inside a running job (a job may Submit follow-up work,
/// but must not Wait() on it — with every worker blocked in Wait() the
/// queue would deadlock).
class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options);
  ~JobScheduler();  ///< Shutdown(/*drain=*/true)

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits and enqueues a job. `work` runs on a scheduler worker with
  /// the job's context; its returned Status becomes the job's final
  /// status. Rejections: ResourceExhausted (queue full / tenant cap),
  /// InvalidArgument (oversize), Unavailable (shutting down).
  Result<JobId> Submit(JobSpec spec,
                       std::function<Status(const JobContext&)> work);

  /// Blocks until the job reaches a terminal state and returns its final
  /// status record. NotFound for an unknown id.
  Result<JobStatus> Wait(JobId id) const;

  /// Non-blocking lifecycle query. NotFound for an unknown id.
  Result<JobStatus> Query(JobId id) const;

  /// Client-initiated cancellation. A queued job is removed and completes
  /// immediately as kCancelled (its scheduler slot and tenant budget are
  /// released right away); a running job has its cancel token tripped and
  /// reaches kCancelled when the work function observes the token
  /// (cooperatively — a work function that ignores the token and returns
  /// OK still completes as kDone). Cancelling a job already in a terminal
  /// state is a no-op. Returns the post-cancel status snapshot; NotFound
  /// for an unknown id.
  Result<JobStatus> Cancel(JobId id);

  /// Stops admission, then either runs every queued job to completion
  /// (`drain` = true, the graceful default) or fails still-queued jobs
  /// with Unavailable. Blocks until the workers joined; idempotent.
  void Shutdown(bool drain = true);

  size_t queued() const;
  size_t running() const;

  /// The derived per-job seed: ShardedRng::DeriveSeed(root, fnv1a(key)).
  /// Exposed so the serving front end (and tests) can predict a job's
  /// seed without running it.
  static uint64_t DeriveJobSeed(uint64_t root_seed, const std::string& key);

 private:
  struct JobRecord {
    JobId id = 0;
    JobSpec spec;
    uint64_t seed = 0;  ///< resolved at admission (DeriveJobSeed)
    std::function<Status(const JobContext&)> work;
    JobState state = JobState::kQueued;
    Status status;
    std::string cause;  ///< see JobStatus::cause
    CancelToken cancel;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    /// This record's key in its tenant queue while kQueued (Cancel()
    /// removes it without a scan).
    std::pair<int64_t, JobId> queue_key;
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// One tenant's backlog: a priority queue as an ordered map keyed by
  /// (-priority, id) — begin() is always the highest-priority, oldest job
  /// — plus the tenant's DRR credit. A map (not a heap) keeps the drain
  /// order deterministic and the code obviously correct under TSan;
  /// serving queues are tens of entries, not millions. The tenant entry
  /// is erased when its backlog empties, which also resets the credit
  /// (classic DRR: an idle tenant does not bank credit).
  struct TenantQueue {
    std::map<std::pair<int64_t, JobId>, std::shared_ptr<JobRecord>> jobs;
    int64_t deficit = 0;  ///< accumulated round-robin credit
  };

  /// Runs the best queued job, if any (the ThreadPool task body).
  void DrainOne();
  /// DRR pick across tenant queues; null when nothing is queued.
  /// `*preempted` is set when the picked job differs from the global
  /// (-priority, id) best — i.e. fairness overrode pure priority order.
  std::shared_ptr<JobRecord> PickJobLocked(bool* preempted);
  /// Removes a still-queued record from its tenant queue.
  void RemoveFromQueueLocked(const JobRecord& record);
  /// Decrements the tenant's in-flight budget.
  void ReleaseTenantLocked(const std::string& tenant);
  JobStatus StatusLocked(const JobRecord& record) const;

  SchedulerOptions options_;

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  bool stopping_ = false;
  JobId next_id_ = 1;
  /// Per-tenant backlogs, tenant-name ordered (the DRR rotation order).
  std::map<std::string, TenantQueue> tenant_queues_;
  size_t queued_total_ = 0;
  /// The tenant served by the last pick; the next rotation starts just
  /// after it, so equal-credit tenants alternate instead of the
  /// alphabetically-first one winning every tie.
  std::string rr_cursor_;
  std::unordered_map<JobId, std::shared_ptr<JobRecord>> jobs_;
  std::unordered_map<std::string, size_t> tenant_inflight_;
  size_t running_ = 0;

  // Resolved metric handles (all null when metrics are off).
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_deadline_ = nullptr;
  obs::Counter* c_fairshare_preempt_ = nullptr;
  obs::Counter* c_rej_queue_full_ = nullptr;
  obs::Counter* c_rej_tenant_cap_ = nullptr;
  obs::Counter* c_rej_oversize_ = nullptr;
  obs::Counter* c_rej_shutdown_ = nullptr;
  obs::Histogram* h_queue_seconds_ = nullptr;
  obs::Histogram* h_run_seconds_ = nullptr;
  obs::Histogram* h_tenant_wait_ms_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;

  /// Owned worker pool; last member so it is destroyed (joining workers)
  /// before the state it drains.
  std::unique_ptr<runtime::ThreadPool> pool_;
};

}  // namespace serd::serve

#endif  // SERD_SERVE_SCHEDULER_H_
