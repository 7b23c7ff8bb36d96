#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "data/dataset_io.h"
#include "datagen/generators.h"
#include "obs/manifest.h"
#include "serve/wire.h"

namespace serd::serve {

namespace {

using datagen::DatasetKind;

obs::Json ErrorJson(const Status& status) {
  obs::Json out = obs::Json::Object();
  out.Set("ok", false);
  out.Set("code", StatusCodeName(status.code()));
  out.Set("error", status.message());
  return out;
}

std::string GetString(const obs::Json& j, const std::string& key,
                      const std::string& fallback) {
  return j.Has(key) ? j.at(key).AsString() : fallback;
}

double GetNumber(const obs::Json& j, const std::string& key, double fallback) {
  return j.Has(key) ? j.at(key).AsNumber(fallback) : fallback;
}

bool GetBool(const obs::Json& j, const std::string& key, bool fallback) {
  return j.Has(key) ? j.at(key).AsBool(fallback) : fallback;
}

/// Largest integer a JSON number (a double) carries exactly: 2^53.
constexpr double kMaxExactInteger = 9007199254740992.0;

/// Reads an integral field into `*out`, whose value on entry is the
/// fallback for an absent key. A fraction or a value outside [lo, hi] is
/// InvalidArgument: casting it to an integer type would be undefined.
template <typename T>
Status GetInteger(const obs::Json& j, const std::string& key, double lo,
                  double hi, T* out) {
  const double v = GetNumber(j, key, static_cast<double>(*out));
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    return Status::InvalidArgument(
        "'" + key + "' must be an integer in [" +
        std::to_string(static_cast<int64_t>(lo)) + ", " +
        std::to_string(static_cast<int64_t>(hi)) + "]");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

/// Schemas are static per dataset kind; a minimal generation exposes one
/// for fingerprinting without paying for a job-sized dataset.
uint64_t SchemaFingerprintFor(DatasetKind kind) {
  static std::mutex mu;
  static std::map<int, uint64_t> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(static_cast<int>(kind));
  if (it != cache.end()) return it->second;
  ERDataset tiny = datagen::Generate(kind, {.seed = 1, .scale = 0.01});
  uint64_t fp = tiny.schema().Fingerprint();
  cache.emplace(static_cast<int>(kind), fp);
  return fp;
}

std::string FormatScale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  return buf;
}

}  // namespace

SerdOptions DefaultJobOptions() {
  SerdOptions options;
  options.string_bank.num_candidates = 3;
  options.string_bank.num_buckets = 5;
  options.string_bank.train.epochs = 2;
  options.gan.epochs = 10;
  options.max_reject_retries = 2;
  // S3 switches to the q-gram inverted index once the pair space is large
  // enough for the exact scan to dominate (SerdOptions::BlockingMode);
  // small jobs (every smoke/test scale) keep the exact scan, so their
  // output is unchanged.
  options.blocking = SerdOptions::BlockingMode::kAuto;
  return options;
}

struct SerdServer::JobParams {
  DatasetKind kind = DatasetKind::kDblpAcm;
  std::string dataset_name;
  double scale = 0.04;
  uint64_t data_seed = 42;
  bool has_seed = false;
  uint64_t seed = 0;  ///< explicit synthesis seed; else the derived one
  std::string tenant = "default";
  std::string model_dir;
  SerdOptions::ArtifactMode artifact_mode = SerdOptions::ArtifactMode::kAuto;
  std::string out_dir;
  int priority = 0;
  std::string seed_key;
  bool enable_rejection = true;
  /// Per-job S3 blocking mode (a RunOptions field); defaults to the
  /// server's job options.
  SerdOptions::BlockingMode blocking = DefaultJobOptions().blocking;
  /// Wall-clock budget in milliseconds from admission (0 = none); maps to
  /// JobSpec::deadline_ms.
  int64_t deadline_ms = 0;
  bool wait = true;

  std::string DatasetId() const {
    return std::string(datagen::DatasetKindName(kind)) + "@" +
           FormatScale(scale) + "#" + std::to_string(data_seed);
  }
};

SerdServer::SerdServer(ServerOptions options)
    : options_(std::move(options)),
      pool_(ModelPoolOptions{options_.pool_capacity, &metrics_}),
      scheduler_(SchedulerOptions{options_.workers, options_.max_queued,
                                  options_.max_inflight_per_tenant,
                                  options_.max_job_entities, options_.seed,
                                  &metrics_}) {}

SerdServer::~SerdServer() { Stop(); }

Status SerdServer::Start() {
  SERD_RETURN_IF_ERROR(ListenOn(options_.port, &listen_fd_, &port_));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SerdServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Stop() shut the listener down
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void SerdServer::HandleConnection(int fd) {
  for (;;) {
    Result<obs::Json> request = ReadJson(fd);
    if (!request.ok()) {
      // A well-framed but unparseable payload is a client bug, not a dead
      // connection: answer it and keep serving. Transport failures —
      // hangup (Unavailable), truncated or oversized frame (IOError) —
      // end the connection; the framing is unrecoverable after those.
      if (request.status().code() != StatusCode::kInvalidArgument) break;
      if (!WriteJson(fd, ErrorJson(request.status())).ok()) break;
      continue;
    }
    obs::Json response = Handle(request.value());
    if (!WriteJson(fd, response).ok()) break;
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
  ::close(fd);
}

obs::Json SerdServer::Handle(const obs::Json& request) {
  const std::string verb = GetString(request, "verb", "");
  if (verb == "health") {
    obs::Json out = obs::Json::Object();
    out.Set("ok", true);
    out.Set("status", "serving");
    return out;
  }
  if (verb == "stats") return HandleStats();
  if (verb == "synthesize") return HandleSynthesize(request);
  if (verb == "job") return HandleJob(request);
  if (verb == "cancel") return HandleCancel(request);
  if (verb == "manifest") return HandleManifest(request);
  if (verb == "reload") return HandleReload(request);
  if (verb == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stop_requested_ = true;
    }
    stop_cv_.notify_all();
    obs::Json out = obs::Json::Object();
    out.Set("ok", true);
    out.Set("status", "stopping");
    return out;
  }
  return ErrorJson(Status::InvalidArgument("unknown verb '" + verb + "'"));
}

Status SerdServer::ParseJobParams(const obs::Json& request,
                                  JobParams* params) const {
  // Retired fields: unknown keys are otherwise ignored, so a client that
  // still sets one would silently get the one decode there is.
  for (const char* retired : {"batched_decode", "decode_precision"}) {
    if (request.Has(retired)) {
      return Status::InvalidArgument(
          "'" + std::string(retired) +
          "' is no longer supported: candidates always decode at fp32 on "
          "the shared stream");
    }
  }
  params->dataset_name = GetString(request, "dataset", "");
  if (params->dataset_name.empty()) {
    return Status::InvalidArgument("request is missing 'dataset'");
  }
  if (!datagen::ParseDatasetKind(params->dataset_name, &params->kind)) {
    return Status::InvalidArgument("unknown dataset '" +
                                   params->dataset_name + "'");
  }
  params->scale = GetNumber(request, "scale", 0.04);
  if (!std::isfinite(params->scale) || params->scale <= 0.0) {
    return Status::InvalidArgument("'scale' must be positive and finite");
  }
  SERD_RETURN_IF_ERROR(GetInteger(request, "data_seed", 0.0,
                                  kMaxExactInteger, &params->data_seed));
  if (request.Has("seed")) {
    params->has_seed = true;
    SERD_RETURN_IF_ERROR(
        GetInteger(request, "seed", 0.0, kMaxExactInteger, &params->seed));
  }
  params->tenant = GetString(request, "tenant", "default");
  params->model_dir = GetString(request, "model_dir", "");
  const std::string mode = GetString(request, "artifact_mode", "auto");
  if (mode == "auto") {
    params->artifact_mode = SerdOptions::ArtifactMode::kAuto;
  } else if (mode == "load") {
    params->artifact_mode = SerdOptions::ArtifactMode::kLoad;
  } else if (mode == "save") {
    params->artifact_mode = SerdOptions::ArtifactMode::kSave;
  } else {
    return Status::InvalidArgument("unknown artifact_mode '" + mode +
                                   "' (auto|load|save)");
  }
  if (params->model_dir.empty() &&
      params->artifact_mode == SerdOptions::ArtifactMode::kLoad) {
    return Status::InvalidArgument(
        "artifact_mode 'load' requires 'model_dir'");
  }
  params->out_dir = GetString(request, "out", "");
  SERD_RETURN_IF_ERROR(GetInteger(request, "priority",
                                  std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max(),
                                  &params->priority));
  params->seed_key = GetString(request, "seed_key", "");
  params->enable_rejection = !GetBool(request, "no_rejection", false);
  params->blocking = options_.job_options.blocking;
  const std::string blocking = GetString(request, "blocking", "");
  if (!blocking.empty() && !ParseBlockingMode(blocking, &params->blocking)) {
    return Status::InvalidArgument("unknown blocking '" + blocking +
                                   "' (off|qgram|auto)");
  }
  SERD_RETURN_IF_ERROR(GetInteger(request, "deadline_ms", 0.0,
                                  kMaxExactInteger, &params->deadline_ms));
  params->wait = GetBool(request, "wait", true);
  return Status::OK();
}

PoolKey SerdServer::KeyFor(const JobParams& params) const {
  PoolKey key;
  key.tenant = params.tenant;
  key.model_dir = params.model_dir;
  key.schema_fingerprint = SchemaFingerprintFor(params.kind);
  key.dataset_id = params.DatasetId();
  return key;
}

ModelPool::EntryLoader SerdServer::LoaderFor(const JobParams& params) const {
  SerdOptions base = options_.job_options;
  JobParams p = params;
  return [base, p]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    // The entry owns the real dataset: the synthesizer keeps a pointer to
    // it for its whole life. Seeds mirror serd_cli exactly (data_seed is
    // serd_cli's --seed) so a served job byte-matches a CLI run.
    entry->real = datagen::Generate(
        p.kind, {.seed = p.data_seed, .scale = p.scale});
    SerdOptions options = base;
    options.seed = p.data_seed;
    options.model_dir = p.model_dir;
    options.artifact_mode = p.artifact_mode;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, options);

    std::vector<std::vector<std::string>> corpora;
    Table background;
    if (p.artifact_mode != SerdOptions::ArtifactMode::kLoad) {
      // kLoad never trains, so it needs no background data; Fit() returns
      // right after the artifact is restored.
      size_t i = 0;
      for (const auto& col : entry->real.schema().columns()) {
        if (col.type != ColumnType::kText) continue;
        corpora.push_back(datagen::BackgroundCorpus(
            p.kind, col.name, 120, p.data_seed * 31 + i++));
      }
      background =
          datagen::BackgroundEntities(p.kind, 100, p.data_seed * 7 + 1);
    }
    Status fit = entry->synth->Fit(corpora, background);
    if (!fit.ok()) return fit;
    return entry;
  };
}

obs::Json SerdServer::HandleSynthesize(const obs::Json& request) {
  JobParams params;
  Status parsed = ParseJobParams(request, &params);
  if (!parsed.ok()) return ErrorJson(parsed);

  JobSpec spec;
  spec.tenant = params.tenant;
  spec.priority = params.priority;
  spec.seed_key = params.seed_key;
  datagen::PaperStats sizes = datagen::PaperSizes(params.kind);
  // Saturated, so an absurd scale reaches admission control as oversize
  // instead of an undefined float-to-integer cast.
  const double entities =
      static_cast<double>(sizes.a_size + sizes.b_size) * params.scale;
  spec.entities = entities < kMaxExactInteger
                      ? static_cast<size_t>(entities)
                      : std::numeric_limits<size_t>::max();
  spec.deadline_ms = params.deadline_ms;

  auto work = [this, params](const JobContext& ctx) -> Status {
    const uint64_t job_seed = params.has_seed ? params.seed : ctx.seed;
    Result<ModelPool::Lease> lease =
        pool_.Acquire(KeyFor(params), LoaderFor(params));
    if (!lease.ok()) return lease.status();
    // A cancel/deadline that tripped while this job waited for the pool
    // lease stops it before any synthesis work (and before the out_dir is
    // touched).
    if (ctx.cancel->cancelled()) return ctx.cancel->cause();
    // The run is read-only over the entry's fitted models, so jobs on one
    // warm entry run in parallel, each with its own options and report.
    RunOptions run;
    run.seed = job_seed;
    run.enable_rejection = params.enable_rejection;
    run.blocking = params.blocking;
    run.cancel = ctx.cancel;
    SerdReport report;
    Result<ERDataset> result = lease->synth()->Synthesize(run, &report);
    if (!result.ok()) return result.status();
    if (!params.out_dir.empty()) {
      SERD_RETURN_IF_ERROR(SaveDataset(result.value(), params.out_dir));
    }
    JobInfo info;
    info.seed = job_seed;
    info.a = result->a.size();
    info.b = result->b.size();
    info.matches = result->matches.size();
    info.offline_seconds = report.offline_seconds;
    info.online_seconds = report.online_seconds;
    info.warm_started = report.warm_started;
    info.out_dir = params.out_dir;
    std::lock_guard<std::mutex> lock(info_mu_);
    job_info_[ctx.id] = info;
    return Status::OK();
  };

  Result<JobId> id = scheduler_.Submit(std::move(spec), std::move(work));
  if (!id.ok()) return ErrorJson(id.status());
  if (!params.wait) {
    obs::Json out = obs::Json::Object();
    out.Set("ok", true);
    out.Set("job", *id);
    out.Set("state", "queued");
    return out;
  }
  Result<JobStatus> done = scheduler_.Wait(*id);
  if (!done.ok()) return ErrorJson(done.status());
  return JobStatusJson(*done);
}

obs::Json SerdServer::HandleJob(const obs::Json& request) {
  if (!request.Has("id")) {
    return ErrorJson(Status::InvalidArgument("request is missing 'id'"));
  }
  JobId id = 0;
  Status parsed = GetInteger(request, "id", 0.0, kMaxExactInteger, &id);
  if (!parsed.ok()) return ErrorJson(parsed);
  Result<JobStatus> status = GetBool(request, "wait", false)
                                 ? scheduler_.Wait(id)
                                 : scheduler_.Query(id);
  if (!status.ok()) return ErrorJson(status.status());
  return JobStatusJson(*status);
}

obs::Json SerdServer::HandleCancel(const obs::Json& request) {
  if (!request.Has("id")) {
    return ErrorJson(Status::InvalidArgument("request is missing 'id'"));
  }
  JobId id = 0;
  Status parsed = GetInteger(request, "id", 0.0, kMaxExactInteger, &id);
  if (!parsed.ok()) return ErrorJson(parsed);
  Result<JobStatus> status = scheduler_.Cancel(id);
  if (!status.ok()) return ErrorJson(status.status());
  // The post-cancel snapshot, with "ok" reporting whether the *cancel*
  // was accepted (it always is for a known id), not whether the job
  // succeeded: a response body identical to "job" would read a cancelled
  // job as a failed request.
  obs::Json out = JobStatusJson(*status);
  out.Set("ok", true);
  return out;
}

obs::Json SerdServer::HandleReload(const obs::Json& request) {
  JobParams params;
  Status parsed = ParseJobParams(request, &params);
  if (!parsed.ok()) return ErrorJson(parsed);
  if (params.model_dir.empty()) {
    return ErrorJson(
        Status::InvalidArgument("reload requires 'model_dir'"));
  }
  Result<uint64_t> fingerprint = ArtifactVersionFingerprint(
      params.model_dir + "/" + SerdSynthesizer::kModelFileName);
  if (!fingerprint.ok()) return ErrorJson(fingerprint.status());
  // Reloads must restore from disk, never retrain: a job-params default
  // of artifact_mode=auto would silently refit if the artifact vanished
  // between the fingerprint probe and the load.
  params.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  const uint64_t reloads_before = pool_reloads();
  Result<ModelPool::Lease> lease =
      pool_.Acquire(KeyFor(params), LoaderFor(params), *fingerprint);
  if (!lease.ok()) return ErrorJson(lease.status());
  lease->Release();
  obs::Json out = obs::Json::Object();
  out.Set("ok", true);
  out.Set("version", *fingerprint);
  out.Set("reloaded", pool_reloads() > reloads_before);
  return out;
}

uint64_t SerdServer::pool_reloads() {
  return metrics_.counter("pool.reloads")->value();
}

obs::Json SerdServer::JobStatusJson(const JobStatus& status) const {
  obs::Json out = obs::Json::Object();
  // Cancelled and deadline-exceeded jobs report ok=false too: the caller
  // did not get a dataset, and "code" tells the failure class apart
  // (serd_submit maps Cancelled/DeadlineExceeded to their own exit codes).
  const bool failed = status.state == JobState::kFailed ||
                      status.state == JobState::kCancelled ||
                      status.state == JobState::kDeadlineExceeded;
  out.Set("ok", !failed);
  out.Set("job", status.id);
  out.Set("state", JobStateName(status.state));
  out.Set("tenant", status.tenant);
  out.Set("queue_seconds", status.queue_seconds);
  out.Set("run_seconds", status.run_seconds);
  if (failed) {
    out.Set("code", StatusCodeName(status.status.code()));
    out.Set("error", status.status.message());
  }
  if (!status.cause.empty()) out.Set("cause", status.cause);
  std::lock_guard<std::mutex> lock(info_mu_);
  auto it = job_info_.find(status.id);
  if (it != job_info_.end()) {
    const JobInfo& info = it->second;
    out.Set("seed", info.seed);
    out.Set("a", static_cast<uint64_t>(info.a));
    out.Set("b", static_cast<uint64_t>(info.b));
    out.Set("matches", static_cast<uint64_t>(info.matches));
    out.Set("offline_seconds", info.offline_seconds);
    out.Set("online_seconds", info.online_seconds);
    out.Set("warm_started", info.warm_started);
    if (!info.out_dir.empty()) out.Set("out", info.out_dir);
  }
  return out;
}

obs::Json SerdServer::HandleStats() {
  obs::Json out = obs::Json::Object();
  out.Set("ok", true);
  out.Set("metrics", obs::SnapshotToJson(metrics_.TakeSnapshot()));
  obs::Json sched = obs::Json::Object();
  sched.Set("queued", static_cast<uint64_t>(scheduler_.queued()));
  sched.Set("running", static_cast<uint64_t>(scheduler_.running()));
  out.Set("scheduler", std::move(sched));
  obs::Json pool = obs::Json::Object();
  pool.Set("size", static_cast<uint64_t>(pool_.size()));
  out.Set("pool", std::move(pool));
  return out;
}

obs::Json SerdServer::HandleManifest(const obs::Json& request) {
  JobParams params;
  Status parsed = ParseJobParams(request, &params);
  if (!parsed.ok()) return ErrorJson(parsed);
  Result<ModelPool::Lease> lease =
      pool_.Acquire(KeyFor(params), LoaderFor(params));
  if (!lease.ok()) return ErrorJson(lease.status());
  // RunManifestJson() is a snapshot read, safe against jobs running on
  // the entry; its metrics sum every job the entry has run.
  obs::Json out = obs::Json::Object();
  out.Set("ok", true);
  out.Set("manifest", lease->synth()->RunManifestJson());
  return out;
}

void SerdServer::Wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void SerdServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
    if (stopped_) {
      stop_cv_.notify_all();
      return;
    }
    stopped_ = true;
  }
  stop_cv_.notify_all();
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the accept thread out of accept(2); close after
    // the join so the fd number cannot be recycled under it.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain: every admitted job runs to completion, so connections blocked
  // in Wait(job) get their responses before the sockets go down.
  scheduler_.Shutdown(/*drain=*/true);

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace serd::serve
