// Serving-layer benchmark: warm-pool job throughput and latency of the
// scheduler + model-pool core at 1/4/8 workers. Eight tenants share one
// trained artifact on disk; each tenant gets its own warm pool entry
// (tenant isolation is part of the pool key); jobs run concurrently on
// distinct entries and on one entry alike. All entries are pre-warmed
// before timing, so the numbers isolate steady-state serving cost —
// scheduling and the synthesis loop — from the one-time artifact load.
//
// Writes BENCH_serve.json: per worker count, jobs/sec plus p50/p99
// end-to-end job latency (queue wait + run), and the speedup over the
// 1-worker row.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "serve/model_pool.h"
#include "serve/scheduler.h"

namespace serd::bench {
namespace {

using datagen::DatasetKind;
using serve::JobContext;
using serve::JobId;
using serve::JobScheduler;
using serve::ModelPool;
using serve::PoolEntry;
using serve::PoolKey;

constexpr int kTenants = 8;
constexpr int kJobs = 40;
constexpr double kScale = 0.02;

/// Small models so a job is CPU-milliseconds; the bench measures serving
/// overhead and scaling, not transformer training.
SerdOptions BenchOptions() {
  SerdOptions opts;
  opts.seed = 77;
  opts.string_bank.num_buckets = 4;
  opts.string_bank.num_candidates = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.transformer.max_len = 32;
  opts.string_bank.train.epochs = 1;
  opts.string_bank.train.batch_size = 16;
  opts.string_bank.max_pairs_per_bucket = 16;
  opts.string_bank.random_pair_samples = 120;
  opts.gan.epochs = 4;
  opts.gan.batch_size = 16;
  opts.jsd_samples = 48;
  opts.rejection_partner_sample = 8;
  opts.max_label_pairs = 20000;
  return opts;
}

struct BenchRow {
  int workers = 0;
  int jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Queue-drain behavior under mass cancellation: every other submitted
/// job is cancelled right after submission, and the row records how fast
/// the queue reaches empty. Cancelled-in-queue jobs must cost ~nothing
/// (they complete at cancel time without a worker), so the drain rate
/// should sit well above the plain-throughput row's jobs/sec.
struct CancelRow {
  int workers = 0;
  int jobs = 0;
  int cancelled = 0;  ///< jobs that ended kCancelled
  int completed = 0;  ///< jobs that ran to kDone
  double wall_seconds = 0.0;
  double drained_per_second = 0.0;  ///< terminal jobs / wall second
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

ModelPool::EntryLoader LoaderFor(const std::string& artifact_dir) {
  return [artifact_dir]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    entry->real = datagen::Generate(DatasetKind::kDblpAcm,
                                    {.seed = 3, .scale = kScale});
    SerdOptions opts = BenchOptions();
    opts.model_dir = artifact_dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, opts);
    Status fit = entry->synth->Fit({}, Table());
    if (!fit.ok()) return fit;
    return entry;
  };
}

BenchRow RunConfig(const std::string& artifact_dir, int workers) {
  ModelPool pool({.capacity = kTenants});
  JobScheduler sched({.workers = workers,
                      .max_queued = 256,
                      .max_inflight_per_tenant = 64,
                      .seed = 9});
  auto loader = LoaderFor(artifact_dir);
  auto key_for = [&artifact_dir](int tenant) {
    return PoolKey{"tenant-" + std::to_string(tenant), artifact_dir,
                   "dblp-acm@0.02#3"};
  };
  auto submit = [&](int tenant, const std::string& seed_key) {
    return sched.Submit(
        {.tenant = "tenant-" + std::to_string(tenant), .seed_key = seed_key},
        [&pool, &loader, &key_for, tenant](const JobContext& ctx) -> Status {
          auto lease = pool.Acquire(key_for(tenant), loader);
          if (!lease.ok()) return lease.status();
          RunOptions run = lease->synth()->DefaultRunOptions();
          run.seed = ctx.seed;
          auto result = lease->synth()->Synthesize(run, nullptr);
          return result.ok() ? Status::OK() : result.status();
        });
  };

  // Pre-warm every tenant's entry so the timed window is all steady state.
  std::vector<JobId> warm;
  for (int t = 0; t < kTenants; ++t) {
    auto id = submit(t, "warmup-" + std::to_string(t));
    if (id.ok()) warm.push_back(*id);
  }
  for (JobId id : warm) sched.Wait(id);

  WallTimer timer;
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    auto id = submit(j % kTenants, "job-" + std::to_string(j));
    if (id.ok()) ids.push_back(*id);
  }
  std::vector<double> latencies;
  for (JobId id : ids) {
    auto status = sched.Wait(id);
    if (status.ok() && status->status.ok()) {
      latencies.push_back(status->queue_seconds + status->run_seconds);
    }
  }
  BenchRow row;
  row.workers = workers;
  row.jobs = static_cast<int>(latencies.size());
  row.wall_seconds = timer.Seconds();
  row.jobs_per_second =
      row.wall_seconds > 0.0 ? row.jobs / row.wall_seconds : 0.0;
  row.p50_seconds = Percentile(latencies, 0.50);
  row.p99_seconds = Percentile(latencies, 0.99);
  sched.Shutdown();
  return row;
}

CancelRow RunCancelConfig(const std::string& artifact_dir, int workers) {
  ModelPool pool({.capacity = kTenants});
  JobScheduler sched({.workers = workers,
                      .max_queued = 256,
                      .max_inflight_per_tenant = 64,
                      .seed = 9});
  auto loader = LoaderFor(artifact_dir);
  auto key_for = [&artifact_dir](int tenant) {
    return PoolKey{"tenant-" + std::to_string(tenant), artifact_dir,
                   "dblp-acm@0.02#3"};
  };
  auto submit = [&](int tenant, const std::string& seed_key) {
    return sched.Submit(
        {.tenant = "tenant-" + std::to_string(tenant), .seed_key = seed_key},
        [&pool, &loader, &key_for, tenant](const JobContext& ctx) -> Status {
          auto lease = pool.Acquire(key_for(tenant), loader);
          if (!lease.ok()) return lease.status();
          if (ctx.cancel->cancelled()) return ctx.cancel->cause();
          RunOptions run = lease->synth()->DefaultRunOptions();
          run.seed = ctx.seed;
          run.cancel = ctx.cancel;
          auto result = lease->synth()->Synthesize(run, nullptr);
          return result.ok() ? Status::OK() : result.status();
        });
  };

  std::vector<JobId> warm;
  for (int t = 0; t < kTenants; ++t) {
    auto id = submit(t, "warmup-" + std::to_string(t));
    if (id.ok()) warm.push_back(*id);
  }
  for (JobId id : warm) sched.Wait(id);

  WallTimer timer;
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    auto id = submit(j % kTenants, "cancel-job-" + std::to_string(j));
    if (id.ok()) ids.push_back(*id);
  }
  // 50 % cancelled load, issued while the queue is full.
  for (size_t i = 0; i < ids.size(); i += 2) sched.Cancel(ids[i]);

  CancelRow row;
  row.workers = workers;
  for (JobId id : ids) {
    auto status = sched.Wait(id);
    if (!status.ok()) continue;
    ++row.jobs;
    if (status->state == serve::JobState::kCancelled) ++row.cancelled;
    if (status->state == serve::JobState::kDone) ++row.completed;
  }
  row.wall_seconds = timer.Seconds();
  row.drained_per_second =
      row.wall_seconds > 0.0 ? row.jobs / row.wall_seconds : 0.0;
  sched.Shutdown();
  return row;
}

void WriteJson(const std::vector<BenchRow>& rows, const CancelRow& cancel,
               const char* path) {
  std::ofstream out(path);
  const double base = rows.empty() ? 0.0 : rows.front().jobs_per_second;
  // hardware_threads contextualizes the speedup column: on a 1-core host
  // the worker curve is flat by construction, whatever the scheduler does.
  out << "{\n  \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"serve_workers_%d\", \"jobs\": %d, "
        "\"wall_seconds\": %.6f, \"jobs_per_second\": %.3f, "
        "\"p50_seconds\": %.6f, \"p99_seconds\": %.6f, "
        "\"speedup_vs_1\": %.2f}%s\n",
        r.workers, r.jobs, r.wall_seconds, r.jobs_per_second, r.p50_seconds,
        r.p99_seconds, base > 0.0 ? r.jobs_per_second / base : 0.0, ",");
    out << buf;
  }
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"name\": \"serve_cancel_50pct_workers_%d\", \"jobs\": %d, "
      "\"cancelled\": %d, \"completed\": %d, \"wall_seconds\": %.6f, "
      "\"drained_per_second\": %.3f}\n",
      cancel.workers, cancel.jobs, cancel.cancelled, cancel.completed,
      cancel.wall_seconds, cancel.drained_per_second);
  out << buf;
  out << "  ]\n}\n";
}

int Run() {
  std::string artifact_dir =
      (std::filesystem::temp_directory_path() / "serd_bench_serve_models")
          .string();
  std::filesystem::remove_all(artifact_dir);
  {
    ERDataset real = datagen::Generate(DatasetKind::kDblpAcm,
                                       {.seed = 3, .scale = kScale});
    std::vector<std::vector<std::string>> corpora;
    size_t i = 0;
    for (const auto& col : real.schema().columns()) {
      if (col.type != ColumnType::kText) continue;
      corpora.push_back(datagen::BackgroundCorpus(
          DatasetKind::kDblpAcm, col.name, 60, 100 + i++));
    }
    Table background =
        datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50, 11);
    SerdOptions opts = BenchOptions();
    opts.model_dir = artifact_dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
    WallTimer train;
    SerdSynthesizer synth(real, opts);
    Status fit = synth.Fit(corpora, background);
    if (!fit.ok()) {
      std::fprintf(stderr, "bench_serve: train failed: %s\n",
                   fit.ToString().c_str());
      return 1;
    }
    std::printf("trained bench artifact in %.2fs\n", train.Seconds());
  }

  std::vector<BenchRow> rows;
  for (int workers : {1, 4, 8}) {
    BenchRow row = RunConfig(artifact_dir, workers);
    std::printf(
        "workers=%d jobs=%d wall=%.2fs throughput=%.2f jobs/s "
        "p50=%.3fs p99=%.3fs\n",
        row.workers, row.jobs, row.wall_seconds, row.jobs_per_second,
        row.p50_seconds, row.p99_seconds);
    rows.push_back(row);
  }
  CancelRow cancel = RunCancelConfig(artifact_dir, 4);
  std::printf(
      "cancel_50pct workers=%d jobs=%d cancelled=%d completed=%d "
      "wall=%.2fs drain=%.2f jobs/s\n",
      cancel.workers, cancel.jobs, cancel.cancelled, cancel.completed,
      cancel.wall_seconds, cancel.drained_per_second);
  WriteJson(rows, cancel, "BENCH_serve.json");
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::RequireReleaseBuild("bench_serve");
  return serd::bench::Run();
}
