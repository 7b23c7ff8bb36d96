// serve-shared and serve-churn: two clients, each on one persistent
// connection, run a closed loop of synthesize jobs against an in-process
// SerdServer over loopback TCP. Each client sends its next job when its
// previous one returns; both take jobs from one list drawn from the
// workload seed. The list also carries the jobs whose releases the run
// checks (written with `out`), so every served job of a run is timed.
//
// The server is deployed with one artifact, trained in set-up over the
// dblp-acm@0.02 analog with data seed 42 (serd_cli's and the server's
// default); the workload seed draws the traffic, not the deployment.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "data/dataset_io.h"
#include "datagen/generators.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace perfbench {

using serd::ERDataset;
using serd::Result;
using serd::SerdOptions;
using serd::SerdSynthesizer;
using serd::WallTimer;
namespace serve = serd::serve;
using Json = serd::obs::Json;

namespace {

constexpr char kDataset[] = "dblp-acm";
constexpr double kScale = 0.02;
constexpr uint64_t kDataSeed = 42;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr size_t kPoolCapacity = 2;
/// Artifact training threads in set-up; jobs run at 1 thread each.
constexpr int kTrainThreads = 2;
/// serve-churn: each client cycles through this many tenants of its own,
/// more than the pool holds, so every job misses.
constexpr int kTenantsPerClient = 3;
/// Jobs per second at the baseline; sizes the job list so a run measures
/// about --seconds. The list is a function of the seed and --seconds
/// alone, so two builds of the program always run the same jobs.
constexpr double kSharedJobsPerSecond = 1.0;
constexpr double kChurnJobsPerSecond = 1.9;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// release_jsd: served releases of fixed seeds (slots of the timed list),
/// each evaluated with fixed evaluation seeds, so the value repeats
/// exactly for one program.
constexpr int kQualityJobs = 6;
constexpr int kQualityEvaluations = 2;
/// Sanity ceiling on release_jsd.
constexpr double kJsdCeiling = 0.4;

Json Verb(const char* verb) {
  Json request = Json::Object();
  request.Set("verb", verb);
  return request;
}

/// A server over the trained artifact, with two connected clients.
struct Session {
  bool churn = false;
  std::string model_dir;
  ERDataset real;
  double fit_seconds = 0.0;
  double save_seconds = 0.0;
  double bank_epsilon = 0.0;
  /// Registry of the training synthesizer (traced set-ups only).
  Tally training;
  std::unique_ptr<serve::SerdServer> server;
  /// Declared after `server`, so the connections close before it stops.
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  /// Jobs each client has sent; drives its tenant cycle.
  std::vector<int> sent = std::vector<int>(kClients, 0);

  /// One tenant on serve-shared; on serve-churn job n of a client goes to
  /// the client's tenant n mod kTenantsPerClient.
  std::string TenantFor(int client, int n) const {
    if (!churn) return "shared";
    std::string tenant = "c";
    tenant += std::to_string(client);
    tenant += "-t";
    tenant += std::to_string(n % kTenantsPerClient);
    return tenant;
  }

  Json JobRequest(uint64_t seed, const std::string& tenant) const {
    Json r = Json::Object();
    r.Set("verb", "synthesize");
    r.Set("dataset", kDataset);
    r.Set("scale", kScale);
    r.Set("data_seed", kDataSeed);
    r.Set("seed", seed);
    r.Set("tenant", tenant);
    r.Set("model_dir", model_dir);
    r.Set("artifact_mode", "load");
    return r;
  }
};

/// A job of the timed list; a non-empty `out` has the server write the
/// release there.
struct Job {
  uint64_t seed = 0;
  std::string out;
};

std::string QualityDir(const RunArgs& args, int q) {
  return args.work_dir + "/quality-" + std::to_string(q);
}

/// `n` jobs (n >= 12) with seeds drawn from the workload seed. Job 0 is
/// the checked job, written out for the served == in-process check;
/// kQualityJobs evenly spaced slots run the fixed quality seeds behind
/// release_jsd, written out too. The list is a function of the seed and
/// `n` alone, so two builds of the program always run the same jobs.
std::vector<Job> JobList(const RunArgs& args, size_t n) {
  std::vector<Job> jobs(n);
  for (size_t k = 0; k < n; ++k) {
    jobs[k].seed = DeriveSeed(args.seed, Stream::kJobs, k);
  }
  jobs[0].out = args.work_dir + "/served";
  for (int q = 0; q < kQualityJobs; ++q) {
    Job& job = jobs[(q + 1) * n / (kQualityJobs + 1)];
    job.seed = DeriveSeed(0, Stream::kQuality, q);
    job.out = QualityDir(args, q);
  }
  return jobs;
}

/// Client-observed facts of one served job.
struct JobSample {
  bool ok = false;
  std::string error;
  double rtt = 0.0;
  double queue = 0.0;
  double run = 0.0;
  double online = 0.0;
};

/// Sends a synthesize request and checks that the response is a release
/// of the target sizes made with the requested seed.
Status CallJob(Session* s, int client, const Json& request,
               JobSample* sample) {
  Result<Json> response = s->clients[client]->Call(request);
  if (!response.ok()) return response.status();
  const Json& r = *response;
  sample->queue = r.at("queue_seconds").AsNumber();
  sample->run = r.at("run_seconds").AsNumber();
  sample->online = r.at("online_seconds").AsNumber();
  if (!r.at("ok").AsBool()) {
    return Status::Internal(r.at("code").AsString() + ": " +
                            r.at("error").AsString());
  }
  if (r.at("a").AsNumber() != static_cast<double>(s->real.a.size()) ||
      r.at("b").AsNumber() != static_cast<double>(s->real.b.size())) {
    return Status::Internal("release size differs from the target");
  }
  if (r.at("seed").AsNumber() != request.at("seed").AsNumber()) {
    return Status::Internal("job ran with another seed");
  }
  return Status::OK();
}

Result<Tally> ServerStats(serve::ServeClient* client) {
  Span span("serve.stats");
  Result<Json> response = client->Call(Verb("stats"));
  if (!response.ok()) return response.status();
  return Tally::Of(response->at("metrics"));
}

/// The `manifest` verb's metrics for one tenant's warm entry.
Result<Tally> EntryMetrics(Session* s, const std::string& tenant) {
  Json request = s->JobRequest(0, tenant);
  request.Set("verb", "manifest");
  Span span("serve.manifest");
  Result<Json> response = s->clients[0]->Call(request);
  if (!response.ok()) return response.status();
  if (!response->at("ok").AsBool()) {
    return Status::Internal(response->at("error").AsString());
  }
  return Tally::Of(response->at("manifest").at("metrics"));
}

/// Generates the input, trains and saves the artifact, starts the server,
/// connects the clients and warms one job up.
Result<std::unique_ptr<Session>> SetUp(bool churn, bool observability,
                                       const RunArgs& args) {
  Span setup("serve.setup");
  auto s = std::make_unique<Session>();
  s->churn = churn;
  s->model_dir = args.work_dir + "/models";
  std::vector<std::vector<std::string>> corpora;
  serd::Table background;
  {
    // serd_cli's derivations, which the server's loader mirrors.
    Span span("datagen.generate");
    const auto kind = serd::datagen::DatasetKind::kDblpAcm;
    s->real = serd::datagen::Generate(kind,
                                      {.seed = kDataSeed, .scale = kScale});
    size_t i = 0;
    for (const auto& col : s->real.schema().columns()) {
      if (col.type != serd::ColumnType::kText) continue;
      corpora.push_back(serd::datagen::BackgroundCorpus(
          kind, col.name, 120, kDataSeed * 31 + i++));
    }
    background =
        serd::datagen::BackgroundEntities(kind, 100, kDataSeed * 7 + 1);
  }
  {
    SerdOptions options = serve::DefaultJobOptions();
    options.seed = kDataSeed;
    options.threads = kTrainThreads;
    options.observability = observability;
    SerdSynthesizer synth(s->real, options);
    Span fit("core.fit");
    SERD_RETURN_IF_ERROR(synth.Fit(corpora, background));
    s->fit_seconds = fit.Stop();
    Span save("artifact.save_models");
    SERD_RETURN_IF_ERROR(synth.SaveModels(s->model_dir));
    s->save_seconds = save.Stop();
    s->bank_epsilon = synth.report().mean_bank_epsilon;
    if (synth.metrics() != nullptr) {
      s->training = Tally::Of(synth.metrics()->TakeSnapshot());
    }
  }
  {
    Span span("serve.start");
    serve::ServerOptions options;
    options.workers = kWorkers;
    options.pool_capacity = kPoolCapacity;
    options.job_options.threads = 1;
    options.job_options.observability = observability;
    s->server = std::make_unique<serve::SerdServer>(options);
    SERD_RETURN_IF_ERROR(s->server->Start());
    for (int c = 0; c < kClients; ++c) {
      auto client = std::make_unique<serve::ServeClient>();
      SERD_RETURN_IF_ERROR(client->Connect(s->server->port()));
      s->clients.push_back(std::move(client));
    }
  }
  // One job, so the timed list starts on loaded code and, on
  // serve-shared, a resident entry; a health call opens the other
  // connection's request path.
  Span warmup("serve.warmup");
  JobSample sample;
  SERD_RETURN_IF_ERROR(CallJob(
      s.get(), 0,
      s->JobRequest(DeriveSeed(args.seed, Stream::kWarmup, 0),
                    s->TenantFor(0, s->sent[0]++)),
      &sample));
  SERD_RETURN_IF_ERROR(s->clients[1]->Call(Verb("health")).status());
  return s;
}

/// A timed run of the job list.
struct Window {
  std::vector<JobSample> jobs;
  double seconds = 0.0;
  Tally stats;  ///< server registry delta over the window
  /// Per successful job: client latency and its parts.
  std::vector<double> rtt, queue, lease, online, wire;
};

/// Runs the job list from both clients and checks it: every job
/// succeeds, each latency splits into non-negative queue, lease wait,
/// online and wire parts, and on serve-churn every job misses the pool.
Window RunWindow(Session* s, const std::vector<Job>& list,
                 RunResult* result) {
  Window w;
  w.jobs.resize(list.size());
  Result<Tally> before = ServerStats(s->clients[0].get());
  std::atomic<size_t> next{0};
  auto client_loop = [&](int c) {
    for (size_t k; (k = next.fetch_add(1)) < list.size();) {
      JobSample& sample = w.jobs[k];
      Json request =
          s->JobRequest(list[k].seed, s->TenantFor(c, s->sent[c]++));
      if (!list[k].out.empty()) request.Set("out", list[k].out);
      Span span("serve.job", static_cast<int64_t>(k));
      Status st = CallJob(s, c, request, &sample);
      sample.rtt = span.Stop();
      sample.ok = st.ok();
      if (!st.ok()) sample.error = st.ToString();
    }
  };
  WallTimer window;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  w.seconds = window.Seconds();
  Result<Tally> after = ServerStats(s->clients[0].get());

  result->Check(before.ok() && after.ok(), "stats verb");
  if (before.ok() && after.ok()) {
    w.stats = *after;
    w.stats.Add(*before, -1.0);
  }
  bool splits = true;
  for (size_t k = 0; k < w.jobs.size(); ++k) {
    const JobSample& j = w.jobs[k];
    result->Check(j.ok, "job " + std::to_string(k) + ": " + j.error);
    if (!j.ok) continue;
    w.rtt.push_back(j.rtt);
    w.queue.push_back(j.queue);
    w.lease.push_back(j.run - j.online);
    w.online.push_back(j.online);
    w.wire.push_back(j.rtt - j.queue - j.run);
    splits = splits && w.lease.back() >= 0.0 && w.wire.back() >= 0.0;
  }
  result->Check(splits, "each latency = queue + lease wait + online + wire");
  if (s->churn) {
    result->Check(w.stats("pool.misses") == static_cast<double>(list.size()),
                  "serve-churn: every timed job misses the pool");
  }
  return w;
}

/// The in-process replay of one served job.
struct Replay {
  std::unique_ptr<SerdSynthesizer> synth;
  Tally metrics;
  double save_dataset_s = 0.0;
};

/// Replays the checked job, served in the window with `out`, in-process
/// the way the server's loader and worker run it, with observability on;
/// the two releases must match byte for byte (served == CLI contract).
Replay CheckServedRelease(const Session& s, const Job& checked, bool served,
                          const RunArgs& args, RunResult* result) {
  Replay replay;
  const std::string local_dir = args.work_dir + "/in_process";
  SerdOptions options = serve::DefaultJobOptions();
  options.threads = 1;
  options.seed = kDataSeed;
  options.model_dir = s.model_dir;
  options.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  options.observability = true;
  Span load("artifact.load");
  replay.synth = std::make_unique<SerdSynthesizer>(s.real, options);
  const Status loaded = replay.synth->Fit({}, serd::Table());
  load.Stop();
  result->Check(loaded.ok(), "in-process load: " + loaded.ToString());
  if (!loaded.ok()) {
    replay.synth.reset();
    return replay;
  }
  replay.synth->set_seed(checked.seed);
  Span synthesize("core.synthesize");
  Result<ERDataset> local = replay.synth->Synthesize();
  synthesize.Stop();
  result->Check(local.ok() && !replay.synth->report().guard_exhausted,
                "in-process Synthesize without guard exhaustion");
  if (!local.ok()) return replay;
  replay.metrics = Tally::Of(replay.synth->metrics()->TakeSnapshot());
  Span save("data.save_dataset");
  result->Check(serd::SaveDataset(*local, local_dir).ok(),
                "in-process SaveDataset");
  replay.save_dataset_s = save.Stop();
  std::string why;
  result->Check(served && SameRelease(checked.out, local_dir, &why),
                "served release == in-process Synthesize " + why);
  return replay;
}

/// Mean JSD(O_real, O_syn) over the kQualityJobs releases the window
/// served with fixed seeds, each read back from disk and evaluated with
/// kQualityEvaluations fixed evaluation seeds.
double ReleaseJsd(const SerdSynthesizer& evaluator, const RunArgs& args,
                  RunResult* result) {
  std::vector<double> jsd;
  for (int q = 0; q < kQualityJobs; ++q) {
    Span load("data.load_dataset");
    Result<ERDataset> release =
        serd::LoadDataset(QualityDir(args, q), "quality");
    load.Stop();
    result->Check(release.ok(), "quality release " + std::to_string(q) +
                                    ": " + release.status().ToString());
    if (!release.ok()) continue;
    for (int e = 0; e < kQualityEvaluations; ++e) {
      Span span("core.evaluate_jsd");
      Result<double> v = evaluator.EvaluateSyntheticJsd(
          *release, 512, DeriveSeed(0, Stream::kQuality, 1000 + e));
      result->Check(v.ok() && std::isfinite(*v), "EvaluateSyntheticJsd");
      if (v.ok()) jsd.push_back(*v);
    }
  }
  result->detail.Set("release_jsd_samples", ToJson(jsd));
  const double mean = Mean(jsd);
  result->Check(mean > 0.0 && mean < kJsdCeiling,
                "release_jsd under its sanity ceiling");
  return mean;
}

void AddIdentity(const Session& s, const Window& w, const Replay& replay,
                 RunResult* result) {
  Json& id = result->identity;
  int64_t failed = 0;
  for (const JobSample& j : w.jobs) failed += j.ok ? 0 : 1;
  id.Set("jobs_attempted", static_cast<int64_t>(w.jobs.size()));
  id.Set("jobs_failed", failed);
  id.Set("pool.hits", w.stats("pool.hits"));
  id.Set("pool.misses", w.stats("pool.misses"));
  id.Set("pool.evictions", w.stats("pool.evictions"));
  // Work of the checked job, from its in-process replay.
  const Tally& m = replay.metrics;
  id.Set("s2.decode_steps", m("s2.decode_steps"));
  id.Set("s2.bank_synth_calls", m("s2.bank_synth_calls"));
  id.Set("s2.accepted", m("s2.accepted"));
  id.Set("s2.rejected",
         m("s2.rejected_discriminator") + m("s2.rejected_distribution"));
  id.Set("s3.scored_pairs", m("s3.scored_pairs"));
  id.Set("bank_epsilon", s.bank_epsilon);
  if (TracingEnabled()) {  // training counters need observability
    id.Set("seq2seq.examples_total", s.training("seq2seq.examples_total"));
    id.Set("gmm.em_iterations", s.training("gmm.em_iterations"));
  }
}

void AddWindowDetail(const Window& w, RunResult* result) {
  Json& d = result->detail;
  d.Set("window_s", w.seconds);
  d.Set("job_latency_s", ToJson(w.rtt));
  Json mean = Json::Object();
  mean.Set("latency", Mean(w.rtt));
  mean.Set("queue", Mean(w.queue));
  mean.Set("lease_wait", Mean(w.lease));
  mean.Set("online", Mean(w.online));
  mean.Set("wire", Mean(w.wire));
  d.Set("job_mean_s", std::move(mean));
  const Tail tail = TailOf(w.rtt);
  d.Set("job_tail_percentile", tail.percentile);
  d.Set("job_tail_beyond", static_cast<uint64_t>(tail.beyond));
  d.Set("job_samples", static_cast<uint64_t>(tail.samples));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of a traced run. `jobs` is the job-phase registry
/// covering `n` Synthesize runs; `server` the server registry at the end.
void AddLayers(const Session& s, const Window& w, const Tally& jobs,
               double n, const Tally& server, double health_ms,
               const Replay& replay, uint64_t probe_seed,
               RunResult* result) {
  const Tally& t = s.training;
  const double accepted = jobs("s2.accepted");
  const double rejected =
      jobs("s2.rejected_discriminator") + jobs("s2.rejected_distribution");
  const double hits = jobs("s2.encoder_cache_hits");
  const double train_s = t("seq2seq.train.sum");

  result->Add("core.fit_s", s.fit_seconds, "s");
  result->Add("core.synthesize_s", Median(w.online), "s");
  result->Add("core.s1_s", t("s1.distributions.sum"), "s");
  result->Add("core.s2_loop_s", jobs("s2.loop.sum") / n, "s");
  result->Add("core.s3_label_s", jobs("s3.label.sum") / n, "s");
  result->Add("core.s2_accept_ratio", Ratio(accepted, accepted + rejected),
              "ratio");
  result->Add("core.s3_scored_pairs", jobs("s3.scored_pairs") / n, "count");
  result->Add("gmm.em_iterations", t("gmm.em_iterations"), "count");
  result->Add("gmm.jsd_s", jobs("s2.jsd_seconds.sum") / n, "s");
  result->Add("gmm.jsd_calls", jobs("s2.jsd_evaluations") / n, "count");
  result->Add("gmm.estimate_jsd_ms",
              replay.synth == nullptr
                  ? 0.0
                  : EstimateJsdMs(replay.synth->o_real(), probe_seed),
              "ms");
  result->Add("seq2seq.train_s", train_s, "s");
  result->Add("seq2seq.train_examples_per_s",
              Ratio(t("seq2seq.examples_total"), train_s), "1/s");
  result->Add("gan.train_s", t("gan.train.sum"), "s");
  result->Add("seq2seq.decode_steps", jobs("s2.decode_steps") / n, "count");
  result->Add("seq2seq.synth_calls", jobs("s2.bank_synth_calls") / n,
              "count");
  result->Add("seq2seq.encoder_cache_hit_ratio",
              Ratio(hits, hits + jobs("s2.encoder_cache_misses")), "ratio");
  Result<double> bank_ms = Status::Internal("no in-process replay");
  if (replay.synth != nullptr) {
    bank_ms = BankSynthesizeMs(s.model_dir, replay.synth->spec(), s.real,
                               probe_seed);
  }
  result->Check(bank_ms.ok(), "bank probe: " + bank_ms.status().ToString());
  result->Add("seq2seq.synthesize_ms", bank_ms.ok() ? *bank_ms : 0.0, "ms");
  result->Add("artifact.save_s", s.save_seconds, "s");
  result->Add("artifact.file_bytes", t("artifact.file_bytes"), "bytes");
  result->Add("artifact.load_s",
              Ratio(server("pool.load_seconds.sum"),
                    server("pool.load_seconds.count")),
              "s");
  result->Add("data.save_dataset_s", replay.save_dataset_s, "s");
  result->Add("serve.queue_s", Median(w.queue), "s");
  result->Add("serve.lease_wait_s", Median(w.lease), "s");
  result->Add("serve.wire_s", Median(w.wire), "s");
  result->Add("serve.health_rtt_ms", health_ms, "ms");
  result->Add("serve.pool_hits", w.stats("pool.hits"), "count");
  result->Add("serve.pool_misses", w.stats("pool.misses"), "count");
  result->Add("serve.pool_evictions", w.stats("pool.evictions"), "count");
}

}  // namespace

RunResult RunServe(const RunArgs& args, bool churn) {
  RunResult result;
  const double rate = churn ? kChurnJobsPerSecond : kSharedJobsPerSecond;
  const std::vector<Job> list =
      JobList(args, std::max<size_t>(12, std::lround(args.seconds * rate)));

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Session> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      s.reset();  // the previous set-up's server stops first
      WallTimer timer;
      Result<std::unique_ptr<Session>> setup = SetUp(churn, false, args);
      result.Check(setup.ok(), "set-up: " + setup.status().ToString());
      if (!setup.ok()) return result;
      setup_s.push_back(timer.Seconds());
      s = std::move(setup).value();
    }
    const Window w = RunWindow(s.get(), list, &result);
    const Replay replay =
        CheckServedRelease(*s, list[0], w.jobs[0].ok, args, &result);
    const double jsd = replay.synth == nullptr
                           ? 0.0
                           : ReleaseJsd(*replay.synth, args, &result);
    AddIdentity(*s, w, replay, &result);
    AddWindowDetail(w, &result);
    result.detail.Set("setup_samples_s", ToJson(setup_s));
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("release_jsd", jsd, "nats");
    result.Add("job_p50_s", Median(w.rtt), "s");
    result.Add("job_tail_s", TailOf(w.rtt).value, "s");
    result.Add("jobs_per_s", static_cast<double>(w.rtt.size()) / w.seconds,
               "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // Traced run. An untraced pass over the first half of the list first:
  // the baseline for obs.tracing_overhead, which compares it with the
  // same jobs of the traced pass.
  const size_t head = list.size() / 2;
  double untraced_p50 = 0.0;
  {
    Result<std::unique_ptr<Session>> setup = SetUp(churn, false, args);
    result.Check(setup.ok(), "set-up: " + setup.status().ToString());
    if (!setup.ok()) return result;
    const std::vector<Job> first(list.begin(), list.begin() + head);
    untraced_p50 = Median(RunWindow(setup->get(), first, &result).rtt);
  }
  EnableTracing();
  Result<std::unique_ptr<Session>> setup = SetUp(churn, true, args);
  result.Check(setup.ok(), "set-up: " + setup.status().ToString());
  if (!setup.ok()) return result;
  Session* s = setup->get();

  // The job-phase registry: on serve-shared, the one entry's delta over
  // the window; on serve-churn an entry lives for one job, so the entries
  // of the two clients' last jobs, still resident, are read.
  Result<Tally> entry_before =
      churn ? Result<Tally>(Tally()) : EntryMetrics(s, s->TenantFor(0, 0));
  const Window w = RunWindow(s, list, &result);
  Result<Tally> server = ServerStats(s->clients[0].get());
  result.Check(server.ok(), "stats verb");
  Tally jobs;
  if (churn) {
    for (int c = 0; c < kClients; ++c) {
      Result<Tally> m = EntryMetrics(s, s->TenantFor(c, s->sent[c] - 1));
      result.Check(m.ok(), "manifest verb");
      if (m.ok()) jobs.Add(*m);
    }
  } else {
    Result<Tally> entry_after = EntryMetrics(s, s->TenantFor(0, 0));
    result.Check(entry_before.ok() && entry_after.ok(), "manifest verb");
    if (entry_before.ok() && entry_after.ok()) {
      jobs = *entry_after;
      jobs.Add(*entry_before, -1.0);
    }
  }
  const double health_ms = HealthRttMs(s->clients[1].get());
  const Replay replay =
      CheckServedRelease(*s, list[0], w.jobs[0].ok, args, &result);
  AddIdentity(*s, w, replay, &result);
  AddWindowDetail(w, &result);
  AddLayers(*s, w, jobs, std::max(1.0, jobs("s2.loop.count")),
            server.ok() ? *server : Tally(), health_ms, replay,
            DeriveSeed(args.seed, Stream::kProbe, 0), &result);
  std::vector<double> traced_rtt;
  for (size_t k = 0; k < head; ++k) {
    if (w.jobs[k].ok) traced_rtt.push_back(w.jobs[k].rtt);
  }
  result.Add("obs.tracing_overhead",
             Ratio(Median(traced_rtt) - untraced_p50, untraced_p50),
             "ratio");
  return result;
}

}  // namespace perfbench
