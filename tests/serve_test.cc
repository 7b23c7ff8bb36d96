// Serving-layer tests: scheduler admission/priority/drain semantics,
// model-pool single-flight and LRU/pinning behavior, wire framing,
// artifact load-failure exit codes, thread-safety of LoadModels /
// RunManifestJson against concurrent snapshot readers, concurrent runs on
// one synthesizer and one warm pool entry (each equal to its solo run),
// arrival-order- and worker-count-independence of per-job outputs, and a
// full server round trip over a loopback socket. The suite runs under the
// tsan and asan CTest labels.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/serd.h"
#include "data/dataset_io.h"
#include "datagen/generators.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/model_pool.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace serd {
namespace {

using datagen::DatasetKind;
using serve::JobContext;
using serve::JobId;
using serve::JobScheduler;
using serve::JobSpec;
using serve::JobState;
using serve::JobStatus;
using serve::ModelPool;
using serve::ModelPoolOptions;
using serve::PoolEntry;
using serve::PoolKey;
using serve::SchedulerOptions;

std::string MakeTempDir(const char* tag) {
  std::string dir = testing::TempDir() + "/serd_serve_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Tiny-model options (mirrors core_test's FastOptions) so training in a
/// test process stays in CPU-seconds even under TSan.
SerdOptions FastOptions() {
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

struct Fixture {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

Fixture MakeFixture(DatasetKind kind = DatasetKind::kDblpAcm,
                    double scale = 0.02) {
  Fixture f;
  f.real = datagen::Generate(kind, {.seed = 3, .scale = scale});
  size_t idx = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    f.corpora.push_back(
        datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
  }
  f.background = datagen::BackgroundEntities(kind, 50, 11);
  return f;
}

/// Trains the tiny model set once and saves it to `dir`. Distinct
/// training seeds produce distinct model bytes (and therefore distinct
/// artifact fingerprints) — the hot-reload tests rely on that.
Status TrainArtifact(const std::string& dir, uint64_t train_seed = 77) {
  Fixture f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.seed = train_seed;
  opts.model_dir = dir;
  opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
  SerdSynthesizer synth(f.real, opts);
  return synth.Fit(f.corpora, f.background);
}

/// Byte-level digest of a released dataset: every cell plus the match
/// pairs, with unambiguous separators.
std::string DatasetDigest(const ERDataset& data) {
  std::string out;
  for (const Table* t : {&data.a, &data.b}) {
    for (size_t r = 0; r < t->size(); ++r) {
      for (const std::string& v : t->row(r).values) {
        out += v;
        out += '\x1f';
      }
      out += '\x1e';
    }
    out += '\x1d';
  }
  for (const PairRef& m : data.matches) {
    out += std::to_string(m.a_idx) + "," + std::to_string(m.b_idx) + ";";
  }
  return out;
}

/// A reusable open/close latch for holding scheduler workers in place.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

void SpinUntil(const std::function<bool()>& done) {
  for (int i = 0; i < 20000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ------------------------------------------------------------- scheduler

TEST(SchedulerTest, RunsJobsAndReportsStatus) {
  obs::MetricsRegistry metrics;
  JobScheduler sched({.workers = 2, .metrics = &metrics});
  std::atomic<int> ran{0};
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = sched.Submit({.tenant = "t"}, [&ran](const JobContext&) {
      ++ran;
      return Status::OK();
    });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (JobId id : ids) {
    auto status = sched.Wait(id);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, JobState::kDone);
    EXPECT_TRUE(status->status.ok());
    EXPECT_EQ(status->tenant, "t");
    EXPECT_GE(status->run_seconds, 0.0);
  }
  EXPECT_EQ(ran.load(), 5);
  auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters["scheduler.submitted"], 5u);
  EXPECT_EQ(snap.counters["scheduler.completed"], 5u);
  EXPECT_EQ(snap.counters["scheduler.failed"], 0u);
}

TEST(SchedulerTest, FailedJobCarriesItsStatus) {
  JobScheduler sched({.workers = 1});
  auto id = sched.Submit({}, [](const JobContext&) {
    return Status::Internal("boom");
  });
  ASSERT_TRUE(id.ok());
  auto status = sched.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->status.code(), StatusCode::kInternal);
  EXPECT_EQ(status->status.message(), "boom");

  EXPECT_EQ(sched.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sched.Query(999).status().code(), StatusCode::kNotFound);
}

TEST(SchedulerTest, AdmissionControlRejectsWithDistinctCodes) {
  obs::MetricsRegistry metrics;
  Gate gate;
  JobScheduler sched({.workers = 1,
                      .max_queued = 2,
                      .max_inflight_per_tenant = 3,
                      .max_job_entities = 100,
                      .metrics = &metrics});

  // Oversize is rejected outright, before any queue accounting.
  auto oversize = sched.Submit({.entities = 101}, [](const JobContext&) {
    return Status::OK();
  });
  EXPECT_EQ(oversize.status().code(), StatusCode::kInvalidArgument);

  // Occupy the single worker, then fill the queue.
  auto blocker = sched.Submit({.tenant = "a"}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1 && sched.queued() == 0; });
  auto work = [](const JobContext&) { return Status::OK(); };
  ASSERT_TRUE(sched.Submit({.tenant = "b"}, work).ok());
  ASSERT_TRUE(sched.Submit({.tenant = "c"}, work).ok());
  auto full = sched.Submit({.tenant = "d"}, work);
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);

  gate.Open();
  sched.Shutdown();
  auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters["scheduler.rejected_oversize"], 1u);
  EXPECT_EQ(snap.counters["scheduler.rejected_queue_full"], 1u);
  EXPECT_EQ(snap.counters["scheduler.completed"], 3u);
}

TEST(SchedulerTest, TenantInFlightCapIsPerTenant) {
  Gate gate;
  JobScheduler sched({.workers = 1, .max_inflight_per_tenant = 2});
  auto gated = [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  };
  ASSERT_TRUE(sched.Submit({.tenant = "noisy"}, gated).ok());
  ASSERT_TRUE(sched.Submit({.tenant = "noisy"}, gated).ok());
  auto third = sched.Submit({.tenant = "noisy"}, gated);
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Another tenant still gets in: the cap isolates tenants from each
  // other instead of sharing one global budget.
  ASSERT_TRUE(sched.Submit({.tenant = "quiet"}, gated).ok());
  gate.Open();
  sched.Shutdown();
}

TEST(SchedulerTest, HigherPriorityJumpsTheLine) {
  Gate gate;
  std::mutex order_mu;
  std::vector<int> order;
  JobScheduler sched({.workers = 1});
  auto blocker = sched.Submit({}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1 && sched.queued() == 0; });
  auto record = [&](int tag) {
    return [&order_mu, &order, tag](const JobContext&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
      return Status::OK();
    };
  };
  ASSERT_TRUE(sched.Submit({.priority = 0}, record(0)).ok());
  ASSERT_TRUE(sched.Submit({.priority = 5}, record(5)).ok());
  ASSERT_TRUE(sched.Submit({.priority = 1}, record(1)).ok());
  ASSERT_TRUE(sched.Submit({.priority = 5}, record(50)).ok());
  gate.Open();
  sched.Shutdown();  // drains
  // Highest priority first; FIFO within a class (5 before 50).
  EXPECT_EQ(order, (std::vector<int>{5, 50, 1, 0}));
}

TEST(SchedulerTest, DrainShutdownRunsEveryAdmittedJob) {
  std::atomic<int> ran{0};
  {
    JobScheduler sched({.workers = 2, .max_inflight_per_tenant = 32});
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(sched.Submit({}, [&ran](const JobContext&) {
                         ++ran;
                         return Status::OK();
                       }).ok());
    }
    // Destructor == Shutdown(drain=true).
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(SchedulerTest, NoDrainShutdownFailsQueuedJobsAndStopsAdmission) {
  Gate gate;
  JobScheduler sched({.workers = 1});
  auto blocker = sched.Submit({}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1; });
  auto queued = sched.Submit({}, [](const JobContext&) {
    return Status::OK();
  });
  ASSERT_TRUE(queued.ok());

  std::thread stopper([&] { sched.Shutdown(/*drain=*/false); });
  SpinUntil([&] { return sched.queued() == 0; });
  gate.Open();
  stopper.join();

  auto dropped = sched.Wait(*queued);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->state, JobState::kFailed);
  EXPECT_EQ(dropped->status.code(), StatusCode::kUnavailable);
  auto ran = sched.Wait(*blocker);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran->state, JobState::kDone);

  auto late = sched.Submit({}, [](const JobContext&) { return Status::OK(); });
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(SchedulerTest, DerivedSeedsAreContentKeyedNotArrivalKeyed) {
  EXPECT_EQ(JobScheduler::DeriveJobSeed(7, "k"),
            JobScheduler::DeriveJobSeed(7, "k"));
  EXPECT_NE(JobScheduler::DeriveJobSeed(7, "k"),
            JobScheduler::DeriveJobSeed(7, "l"));
  EXPECT_NE(JobScheduler::DeriveJobSeed(7, "k"),
            JobScheduler::DeriveJobSeed(8, "k"));

  // The seed a job observes depends only on (root seed, seed_key) — not
  // on submission order or worker count.
  auto collect = [](int workers, const std::vector<int>& order) {
    JobScheduler sched({.workers = workers, .seed = 2024});
    std::mutex mu;
    std::map<std::string, uint64_t> seeds;
    for (int i : order) {
      std::string key = "job-" + std::to_string(i);
      EXPECT_TRUE(sched.Submit({.seed_key = key},
                               [&mu, &seeds, key](const JobContext& ctx) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 seeds[key] = ctx.seed;
                                 return Status::OK();
                               })
                      .ok());
    }
    sched.Shutdown();
    return seeds;
  };
  auto a = collect(1, {0, 1, 2, 3});
  auto b = collect(8, {3, 2, 1, 0});
  EXPECT_EQ(a, b);
}

TEST(SchedulerTest, ConcurrentSubmittersAndWaiters) {
  JobScheduler sched({.workers = 4, .max_queued = 256});
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sched, &ran, t] {
      for (int i = 0; i < 25; ++i) {
        // append(), not "t" + ..., which GCC 12 flags with a false
        // -Wrestrict when inlined here.
        auto id = sched.Submit(
            {.tenant = std::string("t").append(std::to_string(t)),
             .seed_key = std::to_string(t * 100 + i)},
            [&ran](const JobContext&) {
              ++ran;
              return Status::OK();
            });
        if (!id.ok()) continue;  // queue-full rejections are legitimate
        auto status = sched.Wait(*id);
        EXPECT_TRUE(status.ok());
        EXPECT_EQ(status->state, JobState::kDone);
      }
    });
  }
  for (auto& t : threads) t.join();
  sched.Shutdown();
  EXPECT_GT(ran.load(), 0);
}

TEST(SchedulerTest, DeadlineExpiredInQueueReportsItsCause) {
  obs::MetricsRegistry metrics;
  Gate gate;
  JobScheduler sched({.workers = 1, .metrics = &metrics});
  auto blocker = sched.Submit({}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1; });

  // 1 ms budget, then the job sits behind the blocker for far longer: it
  // must complete at dequeue without its work function ever running.
  std::atomic<bool> ran{false};
  auto doomed = sched.Submit({.deadline_ms = 1}, [&ran](const JobContext&) {
    ran = true;
    return Status::OK();
  });
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  auto status = sched.Wait(*doomed);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDeadlineExceeded);
  EXPECT_EQ(status->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status->cause, "deadline_expired_in_queue");
  EXPECT_FALSE(ran.load());
  sched.Shutdown();
  EXPECT_EQ(metrics.TakeSnapshot().counters["scheduler.deadline_exceeded"],
            1u);
}

TEST(SchedulerTest, DeadlineExpiredMidRunReportsItsCause) {
  obs::MetricsRegistry metrics;
  JobScheduler sched({.workers = 1, .metrics = &metrics});
  // The work function cooperates: it polls its token, like Synthesize
  // does from the rejection loop, and returns the token's cause.
  auto id = sched.Submit({.deadline_ms = 30}, [](const JobContext& ctx) {
    for (int i = 0; i < 20000 && !ctx.cancel->cancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ctx.cancel->cause();
  });
  ASSERT_TRUE(id.ok());
  auto status = sched.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDeadlineExceeded);
  EXPECT_EQ(status->status.code(), StatusCode::kDeadlineExceeded);
  // Distinct from the in-queue cause: this job was already running.
  EXPECT_EQ(status->cause, "deadline_expired_running");
  sched.Shutdown();
  EXPECT_EQ(metrics.TakeSnapshot().counters["scheduler.deadline_exceeded"],
            1u);
}

TEST(SchedulerTest, CancelQueuedJobFreesTheSchedulerSlot) {
  obs::MetricsRegistry metrics;
  Gate gate;
  JobScheduler sched(
      {.workers = 1, .max_inflight_per_tenant = 2, .metrics = &metrics});
  auto blocker = sched.Submit({.tenant = "t"}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1; });

  std::atomic<bool> ran{false};
  auto queued = sched.Submit({.tenant = "t"}, [&ran](const JobContext&) {
    ran = true;
    return Status::OK();
  });
  ASSERT_TRUE(queued.ok());
  // Tenant budget is now exhausted (blocker + queued).
  auto capped = sched.Submit({.tenant = "t"},
                             [](const JobContext&) { return Status::OK(); });
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);

  auto cancelled = sched.Cancel(*queued);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_EQ(cancelled->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled->cause, "client_cancel");

  // The cancel released the queue slot and the tenant budget immediately
  // — the same submission that was just rejected is admitted now, while
  // the blocker is still running.
  auto retry = sched.Submit({.tenant = "t"},
                            [](const JobContext&) { return Status::OK(); });
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();

  gate.Open();
  sched.Shutdown();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(metrics.TakeSnapshot().counters["scheduler.cancelled"], 1u);
}

TEST(SchedulerTest, CancelRunningJobTripsItsToken) {
  JobScheduler sched({.workers = 1});
  auto id = sched.Submit({}, [](const JobContext& ctx) {
    for (int i = 0; i < 20000 && !ctx.cancel->cancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ctx.cancel->cause();
  });
  ASSERT_TRUE(id.ok());
  SpinUntil([&] { return sched.running() == 1; });

  auto snapshot = sched.Cancel(*id);
  ASSERT_TRUE(snapshot.ok());
  auto status = sched.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_EQ(status->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(status->cause, "client_cancel");

  // Cancelling a terminal job is a no-op that returns the final record.
  auto again = sched.Cancel(*id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->state, JobState::kCancelled);
  EXPECT_EQ(sched.Cancel(999).status().code(), StatusCode::kNotFound);
  sched.Shutdown();
}

TEST(SchedulerTest, FairShareServesLightTenantsUnderSkew) {
  obs::MetricsRegistry metrics;
  Gate gate;
  JobScheduler sched({.workers = 1,
                      .max_queued = 64,
                      .max_inflight_per_tenant = 32,
                      .metrics = &metrics});
  auto blocker = sched.Submit({.tenant = "a"}, [&gate](const JobContext&) {
    gate.WaitOpen();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  SpinUntil([&] { return sched.running() == 1 && sched.queued() == 0; });

  // The 20:5:1 skew from the issue: tenant "a" floods the queue while
  // "c" submits a single job. Under plain (-priority, id) order c's job
  // would be served dead last; DRR must serve it within the first
  // rotation instead.
  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const std::string& tenant) {
    return [&order_mu, &order, tenant](const JobContext&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tenant);
      return Status::OK();
    };
  };
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sched.Submit({.tenant = "a"}, record("a")).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sched.Submit({.tenant = "b"}, record("b")).ok());
  }
  ASSERT_TRUE(sched.Submit({.tenant = "c"}, record("c")).ok());
  gate.Open();
  sched.Shutdown();  // drains in DRR order

  ASSERT_EQ(order.size(), 26u);
  size_t c_position = 0;
  while (c_position < order.size() && order[c_position] != "c") ++c_position;
  // One rotation serves each backlogged tenant once, so c's only job
  // lands within the first rotation (3 picks), never behind a's flood.
  EXPECT_LT(c_position, 3u) << "tenant c starved until pick " << c_position;

  auto snap = metrics.TakeSnapshot();
  // Fairness overrode pure (-priority, id) order at least once (a's
  // oldest job was the global head whenever b or c got served).
  EXPECT_GE(snap.counters["scheduler.fairshare_preemptions"], 1u);
  // Every pick records the tenant's queue wait.
  EXPECT_EQ(snap.histograms["scheduler.tenant_wait_ms"].count, 27u);
}

// ------------------------------------------------------------ model pool

/// Pool tests use synthetic entries (no synthesizer): the pool only
/// manages lifetime, never calls into the entry.
ModelPool::EntryLoader FakeLoader(std::atomic<int>* loads) {
  return [loads]() -> Result<std::unique_ptr<PoolEntry>> {
    if (loads != nullptr) ++*loads;
    return std::make_unique<PoolEntry>();
  };
}

PoolKey KeyOf(const std::string& tenant, const std::string& id) {
  return PoolKey{tenant, "/models", id};
}

TEST(ModelPoolTest, HitMissEvictCountersAndLru) {
  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  std::atomic<int> loads{0};

  { auto a = pool.Acquire(KeyOf("t", "a"), FakeLoader(&loads)); ASSERT_TRUE(a.ok()); }
  { auto a = pool.Acquire(KeyOf("t", "a"), FakeLoader(&loads)); ASSERT_TRUE(a.ok()); }
  { auto b = pool.Acquire(KeyOf("t", "b"), FakeLoader(&loads)); ASSERT_TRUE(b.ok()); }
  EXPECT_EQ(pool.size(), 2u);
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  { auto a = pool.Acquire(KeyOf("t", "a"), FakeLoader(&loads)); ASSERT_TRUE(a.ok()); }
  { auto c = pool.Acquire(KeyOf("t", "c"), FakeLoader(&loads)); ASSERT_TRUE(c.ok()); }
  EXPECT_EQ(pool.size(), 2u);
  // "b" was evicted: acquiring it again is a miss.
  { auto b = pool.Acquire(KeyOf("t", "b"), FakeLoader(&loads)); ASSERT_TRUE(b.ok()); }

  EXPECT_EQ(loads.load(), 4);  // a, b, c, b-again
  auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters["pool.misses"], 4u);
  EXPECT_EQ(snap.counters["pool.hits"], 2u);
  EXPECT_EQ(snap.counters["pool.evictions"], 2u);  // b, then a or c
  EXPECT_EQ(snap.counters["pool.load_failures"], 0u);
}

TEST(ModelPoolTest, TenantIsPartOfTheKey) {
  ModelPool pool({.capacity = 4});
  std::atomic<int> loads{0};
  auto a = pool.Acquire(KeyOf("tenant1", "x"), FakeLoader(&loads));
  auto b = pool.Acquire(KeyOf("tenant2", "x"), FakeLoader(&loads));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(loads.load(), 2);  // no cross-tenant sharing
}

TEST(ModelPoolTest, PinnedEntriesAreNotEvicted) {
  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 1, .metrics = &metrics});
  std::atomic<int> loads{0};
  auto a = pool.Acquire(KeyOf("t", "a"), FakeLoader(&loads));
  ASSERT_TRUE(a.ok());
  // "a" is pinned by the live lease, so inserting "b" overflows the
  // capacity instead of evicting it.
  auto b = pool.Acquire(KeyOf("t", "b"), FakeLoader(&loads));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(metrics.TakeSnapshot().counters["pool.evictions"], 0u);
  // Releasing the pins lets the pool fall back under its cap.
  a->Release();
  b->Release();
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(metrics.TakeSnapshot().counters["pool.evictions"], 1u);
}

TEST(ModelPoolTest, SingleFlightCoalescesConcurrentLoads) {
  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  Gate gate;
  std::atomic<int> loads{0};
  auto slow_loader = [&]() -> Result<std::unique_ptr<PoolEntry>> {
    ++loads;
    gate.WaitOpen();
    return std::make_unique<PoolEntry>();
  };

  constexpr int kThreads = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto lease = pool.Acquire(KeyOf("t", "shared"), slow_loader);
      if (lease.ok()) ++ok;
    });
  }
  // Let the waiters pile up on the in-flight load, then release it.
  SpinUntil([&] {
    return metrics.TakeSnapshot().counters["pool.coalesced"] >=
           kThreads - 1;
  });
  gate.Open();
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(loads.load(), 1);  // exactly one artifact read
  auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters["pool.misses"], 1u);
  EXPECT_EQ(snap.counters["pool.coalesced"], kThreads - 1u);
}

TEST(ModelPoolTest, LoadFailureIsBroadcastAndRetryable) {
  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  int calls = 0;
  auto flaky = [&calls]() -> Result<std::unique_ptr<PoolEntry>> {
    if (++calls == 1) return Status::IOError("transient");
    return std::make_unique<PoolEntry>();
  };
  auto first = pool.Acquire(KeyOf("t", "x"), flaky);
  EXPECT_EQ(first.status().code(), StatusCode::kIOError);
  EXPECT_EQ(pool.size(), 0u);  // failed key removed, not poisoned
  auto second = pool.Acquire(KeyOf("t", "x"), flaky);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(metrics.TakeSnapshot().counters["pool.load_failures"], 1u);
}

TEST(ModelPoolTest, HotReloadDetachesStaleEntriesAndCountsReloads) {
  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  std::atomic<int> loads{0};
  PoolKey key = KeyOf("t", "x");

  auto v1_a = pool.Acquire(key, FakeLoader(&loads), /*version=*/1);
  ASSERT_TRUE(v1_a.ok());
  auto v1_b = pool.Acquire(key, FakeLoader(&loads), /*version=*/1);
  ASSERT_TRUE(v1_b.ok());
  EXPECT_EQ(loads.load(), 1);  // matching version is a plain hit
  EXPECT_EQ(&v1_a->real(), &v1_b->real());
  EXPECT_EQ(pool.pinned(), 2u);

  // A different version detaches the stale slot and loads a fresh one;
  // the live v1 leases keep their entry alive and usable meanwhile.
  auto v2 = pool.Acquire(key, FakeLoader(&loads), /*version=*/2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(loads.load(), 2);
  EXPECT_NE(&v2->real(), &v1_a->real());
  EXPECT_EQ(pool.size(), 1u);  // one resident entry; the stale one drains
  EXPECT_EQ(pool.pinned(), 3u);

  // Same version again: hit, no second reload. Version 0 ("any") also
  // hits whatever is resident — steady-state jobs never probe.
  auto v2_b = pool.Acquire(key, FakeLoader(&loads), /*version=*/2);
  ASSERT_TRUE(v2_b.ok());
  auto any = pool.Acquire(key, FakeLoader(&loads), /*version=*/0);
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(loads.load(), 2);
  EXPECT_EQ(&any->real(), &v2->real());

  auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters["pool.reloads"], 1u);
  EXPECT_EQ(snap.counters["pool.misses"], 2u);

  // Releasing every lease (stale entry included) drains the gauge to 0 —
  // the no-leaked-lease invariant the fault harness also checks.
  v1_a->Release();
  v1_b->Release();
  v2->Release();
  v2_b->Release();
  any->Release();
  EXPECT_EQ(pool.pinned(), 0u);
  EXPECT_EQ(metrics.TakeSnapshot().gauges["pool.pinned"], 0.0);
}

// ------------------------------------------------------------------ wire

TEST(WireTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_TRUE(serve::WriteFrame(fds[1], "hello").ok());
  EXPECT_TRUE(serve::WriteFrame(fds[1], "").ok());
  obs::Json msg = obs::Json::Object();
  msg.Set("verb", "health");
  msg.Set("n", 3);
  EXPECT_TRUE(serve::WriteJson(fds[1], msg).ok());

  std::string payload;
  ASSERT_TRUE(serve::ReadFrame(fds[0], &payload).ok());
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(serve::ReadFrame(fds[0], &payload).ok());
  EXPECT_EQ(payload, "");
  auto parsed = serve::ReadJson(fds[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("verb").AsString(), "health");
  EXPECT_EQ(parsed->at("n").AsNumber(), 3.0);

  // Orderly hangup between frames is Unavailable, not an error blob.
  ::close(fds[1]);
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(),
            StatusCode::kUnavailable);
  ::close(fds[0]);
}

TEST(WireTest, OversizeAndTruncatedFramesAreIOErrors) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // A length prefix over the frame cap must be rejected before any
  // allocation of that size.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fds[1], huge, 4), 4);
  std::string payload;
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(), StatusCode::kIOError);

  // EOF mid-frame (prefix promises 100 bytes, none arrive).
  const unsigned char short_frame[4] = {0x00, 0x00, 0x00, 0x64};
  ASSERT_EQ(::write(fds[1], short_frame, 4), 4);
  ::close(fds[1]);
  EXPECT_EQ(serve::ReadFrame(fds[0], &payload).code(), StatusCode::kIOError);
  ::close(fds[0]);
}

TEST(WireTest, FailureExitCodesAreStablePerClass) {
  // serd_submit's documented scheme: one exit code per failure class,
  // derivable either from a StatusCode (transport failures) or from a
  // response's "code" name (server-side failures).
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kOk), 0);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kInvalidArgument), 3);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kResourceExhausted), 4);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kUnavailable), 5);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kIOError), 6);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kDeadlineExceeded), 7);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kCancelled), 8);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kInternal), 1);
  EXPECT_EQ(serve::WireFailureExitCode(StatusCode::kNotFound), 1);

  EXPECT_EQ(serve::WireFailureExitCode("OK"), 0);
  EXPECT_EQ(serve::WireFailureExitCode("InvalidArgument"), 3);
  EXPECT_EQ(serve::WireFailureExitCode("ResourceExhausted"), 4);
  EXPECT_EQ(serve::WireFailureExitCode("Unavailable"), 5);
  EXPECT_EQ(serve::WireFailureExitCode("IOError"), 6);
  EXPECT_EQ(serve::WireFailureExitCode("DeadlineExceeded"), 7);
  EXPECT_EQ(serve::WireFailureExitCode("Cancelled"), 8);
  EXPECT_EQ(serve::WireFailureExitCode("Internal"), 1);
  EXPECT_EQ(serve::WireFailureExitCode(""), 1);  // missing "code" field

  // The string and enum views of the same class must always agree.
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable, StatusCode::kIOError,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kFailedPrecondition}) {
    EXPECT_EQ(serve::WireFailureExitCode(code),
              serve::WireFailureExitCode(StatusCodeName(code)))
        << StatusCodeName(code);
  }
}

TEST(WireTest, CallWithRetryBacksOffThroughTransientRejections) {
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(serve::ListenOn(0, &listen_fd, &port).ok());

  // A scripted server: connection 1 rejects twice with ResourceExhausted
  // before answering, connection 2 rejects every call.
  std::thread server([listen_fd] {
    for (int conn = 0; conn < 2; ++conn) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      for (int call = 0;; ++call) {
        auto request = serve::ReadJson(fd);
        if (!request.ok()) break;
        obs::Json response = obs::Json::Object();
        if (conn == 1 || call < 2) {
          response.Set("ok", false);
          response.Set("code", "ResourceExhausted");
          response.Set("error", "queue full");
        } else {
          response.Set("ok", true);
        }
        if (!serve::WriteJson(fd, response).ok()) break;
      }
      ::close(fd);
    }
  });

  obs::Json health = obs::Json::Object();
  health.Set("verb", "health");
  serve::RetryOptions retry;
  retry.max_retries = 3;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  // Two rejections, then success — within the retry budget.
  auto recovered = client.CallWithRetry(health, retry);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->at("ok").AsBool());
  client.Close();

  serve::ServeClient exhausted;
  ASSERT_TRUE(exhausted.Connect(port).ok());
  // Permanently busy: the retry budget runs out and the transient class
  // surfaces as the final status (serd_submit exit code 4).
  auto gave_up = exhausted.CallWithRetry(health, retry);
  ASSERT_FALSE(gave_up.ok());
  EXPECT_EQ(gave_up.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(serve::WireFailureExitCode(gave_up.status().code()), 4);
  exhausted.Close();

  ::close(listen_fd);
  server.join();
}

// ----------------------------------------------- artifact failure mapping

TEST(ArtifactExitCodeTest, BucketsAndCodesAreStable) {
  EXPECT_EQ(ArtifactLoadExitCode(Status::OK()), 0);
  Status io = Status::IOError("cannot open artifact: /nope");
  EXPECT_STREQ(ArtifactLoadFailureCause(io), "io");
  EXPECT_EQ(ArtifactLoadExitCode(io), 3);
  Status crc = Status::InvalidArgument("section 'gan' CRC mismatch");
  EXPECT_STREQ(ArtifactLoadFailureCause(crc), "crc");
  EXPECT_EQ(ArtifactLoadExitCode(crc), 4);
  Status magic = Status::InvalidArgument("bad magic");
  EXPECT_STREQ(ArtifactLoadFailureCause(magic), "format");
  EXPECT_EQ(ArtifactLoadExitCode(magic), 4);
  Status missing = Status::NotFound("artifact has no section 'o_real'");
  EXPECT_STREQ(ArtifactLoadFailureCause(missing), "missing_section");
  EXPECT_EQ(ArtifactLoadExitCode(missing), 4);
  Status schema = Status::InvalidArgument("artifact schema mismatch");
  EXPECT_STREQ(ArtifactLoadFailureCause(schema), "schema");
  EXPECT_EQ(ArtifactLoadExitCode(schema), 5);
  Status version = Status::FailedPrecondition("artifact version 9 unsupported");
  EXPECT_STREQ(ArtifactLoadFailureCause(version), "version");
  EXPECT_EQ(ArtifactLoadExitCode(version), 6);
  Status decode = Status::InvalidArgument("truncated payload bytes left over");
  EXPECT_STREQ(ArtifactLoadFailureCause(decode), "format");
  Status other = Status::InvalidArgument("negative component count");
  EXPECT_STREQ(ArtifactLoadFailureCause(other), "decode");
  EXPECT_EQ(ArtifactLoadExitCode(other), 7);
}

TEST(ArtifactExitCodeTest, RealLoadFailuresMapToDocumentedCodes) {
  Fixture f = MakeFixture();
  SerdSynthesizer synth(f.real, FastOptions());

  // Missing directory -> io -> exit 3 ("wrong path").
  Status missing = synth.LoadModels(testing::TempDir() + "/serve_no_such");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(ArtifactLoadExitCode(missing), 3);

  // Garbage bytes -> corrupt container -> exit 4.
  std::string dir = MakeTempDir("garbage");
  std::ofstream(dir + "/" + SerdSynthesizer::kModelFileName)
      << "this is not an artifact";
  Status garbage = synth.LoadModels(dir);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(ArtifactLoadExitCode(garbage), 4);
}

// ------------------------------------------- core thread-safety (tsan)

TEST(CoreThreadSafetyTest, SnapshotReadsRaceFreeAgainstLoadAndSynthesize) {
  std::string dir = MakeTempDir("warm_concurrent");
  ASSERT_TRUE(TrainArtifact(dir).ok());

  Fixture f = MakeFixture();
  SerdOptions opts = FastOptions();
  SerdSynthesizer synth(f.real, opts);

  std::atomic<bool> done{false};
  // Snapshot readers: RunManifestJson from arbitrary threads while the
  // single mutator thread loads models and synthesizes. Under the tsan
  // label this is the proof of the class's thread-safety contract.
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&synth, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        obs::Json manifest = synth.RunManifestJson();
        EXPECT_TRUE(manifest.is_object());
      }
    });
  }

  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(synth.LoadModels(dir).ok());
    synth.set_seed(100 + round);
    auto result = synth.Synthesize();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
}

// ------------------------------------------------- cancellation (core)

TEST(CoreCancellationTest, CancelledRunLeavesSynthesizerStateUntouched) {
  std::string dir = MakeTempDir("cancel_artifact");
  ASSERT_TRUE(TrainArtifact(dir).ok());
  Fixture f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.model_dir = dir;
  opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  SerdSynthesizer synth(f.real, opts);
  ASSERT_TRUE(synth.Fit({}, Table()).ok());

  synth.set_seed(5);
  auto reference = synth.Synthesize();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string ref_digest = DatasetDigest(*reference);

  // Client-style cancellation: a pre-tripped token stops the run at its
  // first poll and surfaces the token's cause.
  CancelToken cancelled;
  cancelled.Cancel(Status::Cancelled("client went away"));
  synth.set_seed(6);
  auto aborted = synth.Synthesize(&cancelled);
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);

  // Deadline-style cancellation: an already-elapsed armed deadline trips
  // on the first poll with its own cause.
  CancelToken expired;
  expired.ArmDeadline(CancelToken::Clock::now(),
                      Status::DeadlineExceeded("budget spent"));
  synth.set_seed(6);
  auto over_budget = synth.Synthesize(&expired);
  EXPECT_EQ(over_budget.status().code(), StatusCode::kDeadlineExceeded);

  // The aborted runs mutated nothing the next run can observe: the same
  // seed reproduces the reference byte-for-byte (locals-then-commit — a
  // cancelled Synthesize commits neither datasets nor report state).
  synth.set_seed(5);
  auto rerun = synth.Synthesize();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(DatasetDigest(*rerun), ref_digest);

  // An un-tripped token costs nothing and changes nothing.
  CancelToken idle;
  synth.set_seed(5);
  auto with_token = synth.Synthesize(&idle);
  ASSERT_TRUE(with_token.ok());
  EXPECT_EQ(DatasetDigest(*with_token), ref_digest);
}

// ------------------------------------- concurrent runs (core, tsan+asan)

/// A synthesizer warm-loaded from a freshly trained artifact, with
/// observability on so tests can watch a run's progress.
std::unique_ptr<SerdSynthesizer> LoadedSynthesizer(const Fixture& f,
                                                   const std::string& dir) {
  SerdOptions opts = FastOptions();
  opts.model_dir = dir;
  opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  opts.observability = true;
  auto synth = std::make_unique<SerdSynthesizer>(f.real, opts);
  EXPECT_TRUE(synth->Fit({}, Table()).ok());
  return synth;
}

/// Two run configurations differing in every RunOptions field.
std::pair<RunOptions, RunOptions> TwoRunOptions(const SerdSynthesizer& s) {
  RunOptions a = s.DefaultRunOptions();
  a.seed = 5;
  RunOptions b = a;
  b.seed = 6;
  b.enable_rejection = false;
  b.blocking = SerdOptions::BlockingMode::kQgram;
  return {a, b};
}

std::string DigestOf(const Result<ERDataset>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? DatasetDigest(*result) : std::string();
}

TEST(CoreConcurrencyTest, ConcurrentRunsMatchTheirSoloRuns) {
  std::string dir = MakeTempDir("concurrent_runs");
  ASSERT_TRUE(TrainArtifact(dir).ok());
  Fixture f = MakeFixture();
  auto synth = LoadedSynthesizer(f, dir);
  const auto [a, b] = TwoRunOptions(*synth);

  SerdReport solo_a_report, solo_b_report;
  const std::string solo_a = DigestOf(synth->Synthesize(a, &solo_a_report));
  const std::string solo_b = DigestOf(synth->Synthesize(b, &solo_b_report));
  ASSERT_NE(solo_a, solo_b);

  // Both at once on the one synthesizer, each with its own options and
  // report; tsan checks that the runs share nothing they write.
  std::string got_a, got_b;
  SerdReport report_a, report_b;
  std::thread ta([&] { got_a = DigestOf(synth->Synthesize(a, &report_a)); });
  std::thread tb([&] { got_b = DigestOf(synth->Synthesize(b, &report_b)); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, solo_a);
  EXPECT_EQ(got_b, solo_b);
  for (auto [got, solo] : {std::pair{&report_a, &solo_a_report},
                           std::pair{&report_b, &solo_b_report}}) {
    EXPECT_EQ(got->accepted_entities, solo->accepted_entities);
    EXPECT_EQ(got->rejected_by_discriminator,
              solo->rejected_by_discriminator);
    EXPECT_EQ(got->decode_steps, solo->decode_steps);
    EXPECT_EQ(got->s3_scored_pairs, solo->s3_scored_pairs);
    EXPECT_EQ(got->s3_blocked, solo->s3_blocked);
    EXPECT_TRUE(got->warm_started);
  }
  EXPECT_EQ(report_b.rejected_by_discriminator, 0);  // rejection off
  EXPECT_TRUE(report_b.s3_blocked);
}

TEST(CoreConcurrencyTest, CancellingOneRunLeavesTheOtherIntact) {
  std::string dir = MakeTempDir("concurrent_cancel");
  ASSERT_TRUE(TrainArtifact(dir).ok());
  Fixture f = MakeFixture();
  auto synth = LoadedSynthesizer(f, dir);
  const auto [a, b] = TwoRunOptions(*synth);
  const std::string solo_a = DigestOf(synth->Synthesize(a, nullptr));
  const std::string solo_b = DigestOf(synth->Synthesize(b, nullptr));

  // The victim runs alone until it has accepted a few entities, the
  // survivor starts, and the victim's token trips mid-run.
  CancelToken token;
  RunOptions victim = a;
  victim.cancel = &token;
  obs::Counter* accepted = synth->metrics()->counter("s2.accepted");
  const uint64_t accepted_before = accepted->value();
  Result<ERDataset> victim_result = Status::Internal("not run");
  std::string survivor;
  std::thread tv([&] { victim_result = synth->Synthesize(victim, nullptr); });
  SpinUntil([&] { return accepted->value() >= accepted_before + 5; });
  std::thread ts([&] { survivor = DigestOf(synth->Synthesize(b, nullptr)); });
  token.Cancel(Status::Cancelled("client went away"));
  tv.join();
  ts.join();

  EXPECT_EQ(victim_result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(survivor, solo_b);
  // Nothing of the cancelled run stayed behind: its options rerun to the
  // solo bytes.
  EXPECT_EQ(DigestOf(synth->Synthesize(a, nullptr)), solo_a);
}

// --------------------------------------- end-to-end determinism via pool

/// Runs the same 3-job set through a scheduler+pool at the given worker
/// count and submission order; returns seed_key -> dataset digest.
std::map<std::string, std::string> RunJobSet(const std::string& artifact_dir,
                                             int workers,
                                             const std::vector<int>& order) {
  ModelPool pool({.capacity = 2});
  JobScheduler sched({.workers = workers, .seed = 9});

  auto loader = [&artifact_dir]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    entry->real = datagen::Generate(DatasetKind::kDblpAcm,
                                    {.seed = 3, .scale = 0.02});
    SerdOptions opts = FastOptions();
    opts.model_dir = artifact_dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, opts);
    Status fit = entry->synth->Fit({}, Table());
    if (!fit.ok()) return fit;
    return entry;
  };

  std::mutex mu;
  std::map<std::string, std::string> digests;
  PoolKey key{"t", artifact_dir, "dblp-acm@0.02#3"};
  for (int i : order) {
    std::string seed_key = "job-" + std::to_string(i);
    EXPECT_TRUE(
        sched
            .Submit({.tenant = "t", .seed_key = seed_key},
                    [&, seed_key](const JobContext& ctx) -> Status {
                      auto lease = pool.Acquire(key, loader);
                      if (!lease.ok()) return lease.status();
                      RunOptions run = lease->synth()->DefaultRunOptions();
                      run.seed = ctx.seed;
                      auto result = lease->synth()->Synthesize(run, nullptr);
                      if (!result.ok()) return result.status();
                      std::lock_guard<std::mutex> lock(mu);
                      digests[seed_key] = DatasetDigest(result.value());
                      return Status::OK();
                    })
            .ok());
  }
  sched.Shutdown();  // drain
  return digests;
}

TEST(ServeDeterminismTest, JobOutputsIndependentOfArrivalOrderAndWorkers) {
  std::string dir = MakeTempDir("determinism_artifact");
  ASSERT_TRUE(TrainArtifact(dir).ok());

  auto serial = RunJobSet(dir, /*workers=*/1, {0, 1, 2});
  auto parallel = RunJobSet(dir, /*workers=*/8, {2, 0, 1});
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  // Same per-job seeds (content-keyed), same warm models, read-only runs
  // => byte-identical released datasets per job, regardless of arrival
  // order or of how many run at once on the one entry.
  EXPECT_EQ(serial, parallel);
  // And distinct jobs genuinely differ (the per-job seed reaches the
  // synthesis loop).
  EXPECT_NE(serial["job-0"], serial["job-1"]);
}

TEST(ServeConcurrencyTest, SameTenantJobsOverlapOnOneWarmEntry) {
  std::string dir = MakeTempDir("overlap_artifact");
  ASSERT_TRUE(TrainArtifact(dir).ok());
  // Solo runs of the two jobs' seeds, one job at a time.
  Fixture f = MakeFixture();
  auto solo = LoadedSynthesizer(f, dir);
  std::map<uint64_t, std::string> solo_digests;
  for (uint64_t seed : {5, 6}) {
    RunOptions run = solo->DefaultRunOptions();
    run.seed = seed;
    solo_digests[seed] = DigestOf(solo->Synthesize(run, nullptr));
  }

  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  JobScheduler sched({.workers = 2, .seed = 9});
  auto loader = [&dir]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    entry->real = datagen::Generate(DatasetKind::kDblpAcm,
                                    {.seed = 3, .scale = 0.02});
    SerdOptions opts = FastOptions();
    opts.model_dir = dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, opts);
    Status fit = entry->synth->Fit({}, Table());
    if (!fit.ok()) return fit;
    return entry;
  };
  const PoolKey key{"t", dir, "dblp-acm@0.02#3"};

  // Each job holds its lease, waits until the other holds one too, then
  // runs; the two run intervals must overlap on the one entry.
  using Clock = std::chrono::steady_clock;
  std::atomic<int> leased{0};
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  std::map<uint64_t, std::string> digests;
  std::vector<JobId> ids;
  for (uint64_t seed : {5, 6}) {
    auto id = sched.Submit(
        {.tenant = "t", .seed_key = "overlap-" + std::to_string(seed)},
        [&, seed](const JobContext&) -> Status {
          auto lease = pool.Acquire(key, loader);
          if (!lease.ok()) return lease.status();
          leased.fetch_add(1);
          SpinUntil([&] { return leased.load() == 2; });
          RunOptions run = lease->synth()->DefaultRunOptions();
          run.seed = seed;
          const Clock::time_point start = Clock::now();
          auto result = lease->synth()->Synthesize(run, nullptr);
          const Clock::time_point end = Clock::now();
          if (!result.ok()) return result.status();
          std::lock_guard<std::mutex> lock(mu);
          spans.emplace_back(start, end);
          digests[seed] = DatasetDigest(*result);
          return Status::OK();
        });
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (JobId id : ids) {
    auto done = sched.Wait(id);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done->status.ok()) << done->status.ToString();
  }
  sched.Shutdown();

  ASSERT_EQ(leased.load(), 2);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LT(std::max(spans[0].first, spans[1].first),
            std::min(spans[0].second, spans[1].second))
      << "the two runs did not overlap";
  EXPECT_EQ(digests, solo_digests);
  auto counters = metrics.TakeSnapshot().counters;
  EXPECT_EQ(counters["pool.misses"], 1u);
  EXPECT_EQ(counters["pool.hits"], 1u);
  EXPECT_EQ(pool.pinned(), 0u);
}

/// Like RunJobSet, but jobs arrive from several tenants (each with its
/// own pool entry — tenant is part of the PoolKey) so the DRR scheduler
/// actually interleaves tenants.
std::map<std::string, std::string> RunTenantJobSet(
    const std::string& artifact_dir, int workers,
    const std::vector<std::pair<std::string, int>>& arrivals) {
  ModelPool pool({.capacity = 4});
  JobScheduler sched({.workers = workers,
                      .max_queued = 128,
                      .max_inflight_per_tenant = 32,
                      .seed = 9});

  auto loader = [&artifact_dir]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    entry->real = datagen::Generate(DatasetKind::kDblpAcm,
                                    {.seed = 3, .scale = 0.02});
    SerdOptions opts = FastOptions();
    opts.model_dir = artifact_dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, opts);
    Status fit = entry->synth->Fit({}, Table());
    if (!fit.ok()) return fit;
    return entry;
  };

  std::mutex mu;
  std::map<std::string, std::string> digests;
  for (const auto& [tenant, i] : arrivals) {
    PoolKey key{tenant, artifact_dir, "dblp-acm@0.02#3"};
    std::string seed_key = tenant + "/job-" + std::to_string(i);
    EXPECT_TRUE(
        sched
            .Submit({.tenant = tenant, .seed_key = seed_key},
                    [&, key, seed_key](const JobContext& ctx) -> Status {
                      auto lease = pool.Acquire(key, loader);
                      if (!lease.ok()) return lease.status();
                      RunOptions run = lease->synth()->DefaultRunOptions();
                      run.seed = ctx.seed;
                      auto result = lease->synth()->Synthesize(run, nullptr);
                      if (!result.ok()) return result.status();
                      std::lock_guard<std::mutex> lock(mu);
                      digests[seed_key] = DatasetDigest(result.value());
                      return Status::OK();
                    })
            .ok());
  }
  sched.Shutdown();  // drain
  return digests;
}

TEST(ServeDeterminismTest, OutputsIndependentOfTenantMixOrderAndWorkers) {
  std::string dir = MakeTempDir("tenant_mix_artifact");
  ASSERT_TRUE(TrainArtifact(dir).ok());

  // A skewed mix ("a" floods, "c" trickles) submitted in two different
  // orders at two worker counts: DRR reorders *when* each job runs, but
  // content-keyed seeds mean it must never change *what* each job emits.
  std::vector<std::pair<std::string, int>> skewed = {
      {"a", 0}, {"a", 1}, {"b", 0}, {"c", 0}};
  std::vector<std::pair<std::string, int>> reversed(skewed.rbegin(),
                                                    skewed.rend());
  auto serial = RunTenantJobSet(dir, /*workers=*/1, skewed);
  auto parallel = RunTenantJobSet(dir, /*workers=*/8, reversed);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, parallel);
}

// ------------------------------------------------------ pool hot-reload

TEST(ServeHotReloadTest, InFlightJobsFinishOnOldArtifactsDuringSwap) {
  // Two genuinely different model versions (distinct training seeds).
  std::string dir_v1 = MakeTempDir("reload_v1");
  std::string dir_v2 = MakeTempDir("reload_v2");
  ASSERT_TRUE(TrainArtifact(dir_v1, /*train_seed=*/77).ok());
  ASSERT_TRUE(TrainArtifact(dir_v2, /*train_seed=*/78).ok());
  const std::string file_v1 =
      dir_v1 + "/" + SerdSynthesizer::kModelFileName;
  const std::string file_v2 =
      dir_v2 + "/" + SerdSynthesizer::kModelFileName;

  // The fingerprint tracks artifact content, not its path or mtime.
  auto fp_v1 = serve::ArtifactVersionFingerprint(file_v1);
  auto fp_v2 = serve::ArtifactVersionFingerprint(file_v2);
  ASSERT_TRUE(fp_v1.ok());
  ASSERT_TRUE(fp_v2.ok());
  EXPECT_NE(*fp_v1, *fp_v2);
  EXPECT_FALSE(
      serve::ArtifactVersionFingerprint(dir_v1 + "/nope.bin").ok());

  // Reference digests straight from each version.
  auto digest_for = [&](const std::string& model_dir) {
    Fixture f = MakeFixture();
    SerdOptions opts = FastOptions();
    opts.model_dir = model_dir;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    SerdSynthesizer synth(f.real, opts);
    EXPECT_TRUE(synth.Fit({}, Table()).ok());
    synth.set_seed(5);
    auto result = synth.Synthesize();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return DatasetDigest(*result);
  };
  const std::string digest_v1 = digest_for(dir_v1);
  const std::string digest_v2 = digest_for(dir_v2);
  ASSERT_NE(digest_v1, digest_v2);

  // A "live" artifact dir the operator republishes in place.
  std::string dir_live = MakeTempDir("reload_live");
  const std::string file_live =
      dir_live + "/" + SerdSynthesizer::kModelFileName;
  std::filesystem::copy_file(file_v1, file_live);

  obs::MetricsRegistry metrics;
  ModelPool pool({.capacity = 2, .metrics = &metrics});
  auto loader = [&dir_live]() -> Result<std::unique_ptr<PoolEntry>> {
    auto entry = std::make_unique<PoolEntry>();
    entry->real = datagen::Generate(DatasetKind::kDblpAcm,
                                    {.seed = 3, .scale = 0.02});
    SerdOptions opts = FastOptions();
    opts.model_dir = dir_live;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    entry->synth = std::make_unique<SerdSynthesizer>(entry->real, opts);
    Status fit = entry->synth->Fit({}, Table());
    if (!fit.ok()) return fit;
    return entry;
  };
  PoolKey key{"t", dir_live, "dblp-acm@0.02#3"};

  auto live_fp = serve::ArtifactVersionFingerprint(file_live);
  ASSERT_TRUE(live_fp.ok());
  auto old_lease = pool.Acquire(key, loader, *live_fp);
  ASSERT_TRUE(old_lease.ok());

  // The in-flight job synthesizes on the old lease while the main thread
  // republishes and swaps underneath it (tsan guards the interleaving).
  std::string old_digest;
  std::thread in_flight([&] {
    RunOptions run = old_lease->synth()->DefaultRunOptions();
    run.seed = 5;
    auto result = old_lease->synth()->Synthesize(run, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    old_digest = DatasetDigest(*result);
  });

  std::filesystem::copy_file(
      file_v2, file_live, std::filesystem::copy_options::overwrite_existing);
  auto new_fp = serve::ArtifactVersionFingerprint(file_live);
  ASSERT_TRUE(new_fp.ok());
  EXPECT_EQ(*new_fp, *fp_v2);
  auto new_lease = pool.Acquire(key, loader, *new_fp);
  ASSERT_TRUE(new_lease.ok());
  {
    RunOptions run = new_lease->synth()->DefaultRunOptions();
    run.seed = 5;
    auto result = new_lease->synth()->Synthesize(run, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DatasetDigest(*result), digest_v2);
  }
  in_flight.join();
  // The overlapping job finished on the version it started with.
  EXPECT_EQ(old_digest, digest_v1);

  // Exactly one swap; re-probing the same version is a plain hit.
  auto again = pool.Acquire(key, loader, *new_fp);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(metrics.TakeSnapshot().counters["pool.reloads"], 1u);

  old_lease->Release();
  new_lease->Release();
  again->Release();
  EXPECT_EQ(pool.pinned(), 0u);
}

// ------------------------------------------------------- server (socket)

TEST(ServerTest, EndToEndSynthesizeStatsManifestAndWarmHits) {
  std::string model_dir = MakeTempDir("server_artifact");
  ASSERT_TRUE(TrainArtifact(model_dir).ok());
  std::string out1 = testing::TempDir() + "/serd_serve_out1";
  std::string out2 = testing::TempDir() + "/serd_serve_out2";
  std::filesystem::remove_all(out1);
  std::filesystem::remove_all(out2);

  serve::ServerOptions options;
  options.workers = 2;
  options.job_options = FastOptions();
  serve::SerdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  obs::Json health = obs::Json::Object();
  health.Set("verb", "health");
  auto health_reply = client.Call(health);
  ASSERT_TRUE(health_reply.ok());
  EXPECT_TRUE(health_reply->at("ok").AsBool());

  auto synth_request = [&](const std::string& out) {
    obs::Json req = obs::Json::Object();
    req.Set("verb", "synthesize");
    req.Set("dataset", "dblp-acm");
    req.Set("scale", 0.02);
    req.Set("data_seed", static_cast<uint64_t>(3));
    req.Set("seed", static_cast<uint64_t>(5));
    req.Set("model_dir", model_dir);
    req.Set("artifact_mode", "load");
    req.Set("out", out);
    return req;
  };
  auto first = client.Call(synth_request(out1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->at("ok").AsBool()) << first->Dump();
  EXPECT_EQ(first->at("state").AsString(), "done");
  EXPECT_TRUE(first->at("warm_started").AsBool());

  auto second = client.Call(synth_request(out2));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->at("ok").AsBool()) << second->Dump();

  // Same job => same sizes, and byte-identical released tables; the
  // second job must have reused the warm pool entry.
  EXPECT_EQ(first->at("a").AsNumber(), second->at("a").AsNumber());
  EXPECT_EQ(first->at("matches").AsNumber(), second->at("matches").AsNumber());
  for (const char* file : {"tableA.csv", "tableB.csv", "matches.csv"}) {
    auto lhs = obs::ReadTextFile(out1 + "/" + file);
    auto rhs = obs::ReadTextFile(out2 + "/" + file);
    ASSERT_TRUE(lhs.ok() && rhs.ok()) << file;
    EXPECT_EQ(*lhs, *rhs) << file;
  }

  obs::Json stats = obs::Json::Object();
  stats.Set("verb", "stats");
  auto stats_reply = client.Call(stats);
  ASSERT_TRUE(stats_reply.ok());
  const obs::Json& counters = stats_reply->at("metrics").at("counters");
  EXPECT_EQ(counters.at("pool.hits").AsNumber(), 1.0);
  EXPECT_EQ(counters.at("pool.misses").AsNumber(), 1.0);
  EXPECT_EQ(counters.at("scheduler.completed").AsNumber(), 2.0);

  obs::Json manifest = obs::Json::Object();
  manifest.Set("verb", "manifest");
  manifest.Set("dataset", "dblp-acm");
  manifest.Set("scale", 0.02);
  manifest.Set("data_seed", static_cast<uint64_t>(3));
  manifest.Set("model_dir", model_dir);
  manifest.Set("artifact_mode", "load");
  auto manifest_reply = client.Call(manifest);
  ASSERT_TRUE(manifest_reply.ok());
  ASSERT_TRUE(manifest_reply->at("ok").AsBool()) << manifest_reply->Dump();
  EXPECT_TRUE(manifest_reply->at("manifest").Has("report"));

  obs::Json bogus = obs::Json::Object();
  bogus.Set("verb", "frobnicate");
  auto bogus_reply = client.Call(bogus);
  ASSERT_TRUE(bogus_reply.ok());
  EXPECT_FALSE(bogus_reply->at("ok").AsBool());
  EXPECT_EQ(bogus_reply->at("code").AsString(), "InvalidArgument");

  obs::Json unknown_job = obs::Json::Object();
  unknown_job.Set("verb", "job");
  unknown_job.Set("id", static_cast<uint64_t>(424242));
  auto unknown_reply = client.Call(unknown_job);
  ASSERT_TRUE(unknown_reply.ok());
  EXPECT_EQ(unknown_reply->at("code").AsString(), "NotFound");

  client.Close();
  server.Stop();
}

TEST(ServerTest, SameTenantNoWaitJobsShareOneEntryAndMatchSoloRuns) {
  std::string model_dir = MakeTempDir("server_shared_artifact");
  ASSERT_TRUE(TrainArtifact(model_dir).ok());
  Fixture f = MakeFixture();
  auto solo = LoadedSynthesizer(f, model_dir);

  serve::ServerOptions options;
  options.workers = 2;
  options.job_options = FastOptions();
  serve::SerdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // Both jobs are queued before either is waited for, so the two workers
  // run them on the one warm entry together.
  std::map<uint64_t, JobId> ids;
  for (uint64_t seed : {5, 6}) {
    const std::string out =
        testing::TempDir() + "/serd_serve_shared_" + std::to_string(seed);
    std::filesystem::remove_all(out);
    obs::Json req = obs::Json::Object();
    req.Set("verb", "synthesize");
    req.Set("dataset", "dblp-acm");
    req.Set("scale", 0.02);
    req.Set("data_seed", static_cast<uint64_t>(3));
    req.Set("seed", seed);
    req.Set("model_dir", model_dir);
    req.Set("artifact_mode", "load");
    req.Set("out", out);
    req.Set("wait", false);
    auto reply = client.Call(req);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->at("ok").AsBool()) << reply->Dump();
    ids[seed] = static_cast<JobId>(reply->at("job").AsNumber());
  }
  for (const auto& [seed, id] : ids) {
    obs::Json wait = obs::Json::Object();
    wait.Set("verb", "job");
    wait.Set("id", id);
    wait.Set("wait", true);
    auto done = client.Call(wait);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->at("ok").AsBool()) << done->Dump();
    EXPECT_EQ(done->at("seed").AsNumber(), static_cast<double>(seed));
    EXPECT_TRUE(done->at("warm_started").AsBool());
    EXPECT_GT(done->at("online_seconds").AsNumber(), 0.0);

    RunOptions run = solo->DefaultRunOptions();
    run.seed = seed;
    auto expected = solo->Synthesize(run, nullptr);
    ASSERT_TRUE(expected.ok());
    auto served = LoadDataset(done->at("out").AsString(), "served");
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(DatasetDigest(*served), DatasetDigest(*expected))
        << "seed " << seed;
  }

  obs::Json stats = obs::Json::Object();
  stats.Set("verb", "stats");
  auto stats_reply = client.Call(stats);
  ASSERT_TRUE(stats_reply.ok());
  const obs::Json& counters = stats_reply->at("metrics").at("counters");
  EXPECT_EQ(counters.at("pool.misses").AsNumber(), 1.0);
  EXPECT_EQ(counters.at("scheduler.completed").AsNumber(), 2.0);
  client.Close();
  server.Stop();
}

TEST(ServerTest, RoundTripsOnOneConnectionAreFast) {
  // Each frame leaves in one write; a prefix sent apart from its payload
  // stalls every request after a connection's first on a delayed ACK
  // (~40 ms on Linux loopback).
  serve::ServerOptions options;
  options.workers = 1;
  serve::SerdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  obs::Json health = obs::Json::Object();
  health.Set("verb", "health");
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto reply = client.Call(health);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->at("ok").AsBool());
  }
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(0.5 * (ms[9] + ms[10]), 10.0) << "median health round trip";
  client.Close();
  server.Stop();
}

TEST(ServerTest, RejectsMalformedRequestsWithoutDying) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::SerdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  obs::Json no_dataset = obs::Json::Object();
  no_dataset.Set("verb", "synthesize");
  auto reply = client.Call(no_dataset);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->at("ok").AsBool());
  EXPECT_EQ(reply->at("code").AsString(), "InvalidArgument");

  obs::Json bad_mode = obs::Json::Object();
  bad_mode.Set("verb", "synthesize");
  bad_mode.Set("dataset", "dblp-acm");
  bad_mode.Set("artifact_mode", "yolo");
  reply = client.Call(bad_mode);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->at("ok").AsBool());

  // A negative deadline is rejected at parse time.
  obs::Json bad_deadline = obs::Json::Object();
  bad_deadline.Set("verb", "synthesize");
  bad_deadline.Set("dataset", "dblp-acm");
  bad_deadline.Set("deadline_ms", -5);
  reply = client.Call(bad_deadline);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->at("ok").AsBool());
  EXPECT_EQ(reply->at("code").AsString(), "InvalidArgument");

  // The retired decode fields (lane-batched decode, decode precision) are
  // refused by name, whatever their value, instead of being ignored like
  // an unknown key.
  auto expect_retired = [&](const obs::Json& request, const char* field) {
    reply = client.Call(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->at("ok").AsBool());
    EXPECT_EQ(reply->at("code").AsString(), "InvalidArgument");
    EXPECT_NE(reply->at("error").AsString().find(field), std::string::npos)
        << reply->at("error").AsString();
  };
  for (bool value : {true, false}) {
    obs::Json batched = obs::Json::Object();
    batched.Set("verb", "synthesize");
    batched.Set("dataset", "dblp-acm");
    batched.Set("batched_decode", value);
    expect_retired(batched, "batched_decode");
  }
  for (const char* precision : {"fp32", "int8", "bf16", ""}) {
    SCOPED_TRACE(precision);
    obs::Json retired = obs::Json::Object();
    retired.Set("verb", "synthesize");
    retired.Set("dataset", "dblp-acm");
    retired.Set("decode_precision", precision);
    expect_retired(retired, "decode_precision");
  }

  // Numbers the wire must not cast blindly: non-finite JSON (refused by
  // the parser), an infinite or non-positive scale, seeds outside
  // [0, 2^53] or fractional, a priority beyond int, a negative job id.
  // Raw frames, since obs::Json never prints a non-finite number.
  Result<int> raw_fd = serve::ConnectTo(server.port());
  ASSERT_TRUE(raw_fd.ok());
  for (const char* payload : {
           R"({"verb": "synthesize", "dataset": "dblp-acm", "scale": 1e400})",
           R"({"verb": "synthesize", "dataset": "dblp-acm", "scale": -nan})",
           R"({"verb": "synthesize", "dataset": "dblp-acm", "scale": -inf})",
           R"({"verb": "synthesize", "dataset": "dblp-acm",
               "seed": 18446744073709551615})",
           R"({"verb": "synthesize", "dataset": "dblp-acm", "seed": -1})",
           R"({"verb": "synthesize", "dataset": "dblp-acm", "seed": 2.5})",
           R"({"verb": "synthesize", "dataset": "dblp-acm",
               "data_seed": 9007199254740994})",
           R"({"verb": "synthesize", "dataset": "dblp-acm",
               "priority": 3000000000})",
           R"({"verb": "synthesize", "dataset": "dblp-acm",
               "deadline_ms": 1e300})",
           R"({"verb": "job", "id": -3})",
           R"({"verb": "cancel", "id": 1e30})"}) {
    ASSERT_TRUE(serve::WriteFrame(*raw_fd, payload).ok());
    auto raw_reply = serve::ReadJson(*raw_fd);
    ASSERT_TRUE(raw_reply.ok()) << payload;
    EXPECT_FALSE(raw_reply->at("ok").AsBool()) << payload;
    EXPECT_EQ(raw_reply->at("code").AsString(), "InvalidArgument") << payload;
  }
  ::close(*raw_fd);

  // Reload without a model_dir cannot name an artifact to fingerprint.
  obs::Json bad_reload = obs::Json::Object();
  bad_reload.Set("verb", "reload");
  bad_reload.Set("dataset", "dblp-acm");
  reply = client.Call(bad_reload);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->at("ok").AsBool());
  EXPECT_EQ(reply->at("code").AsString(), "InvalidArgument");

  // The connection is still usable after rejected requests.
  obs::Json health = obs::Json::Object();
  health.Set("verb", "health");
  reply = client.Call(health);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->at("ok").AsBool());

  client.Close();
  server.Stop();
}

TEST(ServerTest, DeadlineCancelAndReloadVerbs) {
  std::string model_dir = MakeTempDir("server_deadline_artifact");
  ASSERT_TRUE(TrainArtifact(model_dir).ok());

  serve::ServerOptions options;
  options.workers = 1;  // one worker makes queue-expiry deterministic
  options.job_options = FastOptions();
  serve::SerdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  auto synth_request = [&] {
    obs::Json req = obs::Json::Object();
    req.Set("verb", "synthesize");
    req.Set("dataset", "dblp-acm");
    req.Set("scale", 0.02);
    req.Set("data_seed", static_cast<uint64_t>(3));
    req.Set("seed", static_cast<uint64_t>(5));
    req.Set("model_dir", model_dir);
    req.Set("artifact_mode", "load");
    return req;
  };

  // Occupy the single worker, then submit a 1 ms-deadline job behind it:
  // model load + synthesis dwarf 1 ms, so the job must expire in queue.
  obs::Json blocker = synth_request();
  blocker.Set("wait", false);
  auto blocker_reply = client.Call(blocker);
  ASSERT_TRUE(blocker_reply.ok());
  ASSERT_TRUE(blocker_reply->at("ok").AsBool()) << blocker_reply->Dump();
  JobId blocker_id =
      static_cast<JobId>(blocker_reply->at("job").AsNumber());

  std::string dead_out = testing::TempDir() + "/serd_serve_dead_out";
  std::filesystem::remove_all(dead_out);
  obs::Json doomed = synth_request();
  doomed.Set("deadline_ms", 1);
  doomed.Set("out", dead_out);
  auto doomed_reply = client.Call(doomed);
  ASSERT_TRUE(doomed_reply.ok());
  EXPECT_FALSE(doomed_reply->at("ok").AsBool()) << doomed_reply->Dump();
  EXPECT_EQ(doomed_reply->at("state").AsString(), "deadline_exceeded");
  EXPECT_EQ(doomed_reply->at("code").AsString(), "DeadlineExceeded");
  EXPECT_EQ(doomed_reply->at("cause").AsString(),
            "deadline_expired_in_queue");
  // No partial dataset reached the disk.
  EXPECT_FALSE(std::filesystem::exists(dead_out));

  // Cancel: park one job behind another, cancel the queued one. However
  // the race resolves (cancelled in queue or just after pickup, where
  // the token check before synthesis stops it), the outcome is the same:
  // state cancelled, cause client_cancel, nothing written.
  obs::Json runner = synth_request();
  runner.Set("wait", false);
  auto runner_reply = client.Call(runner);
  ASSERT_TRUE(runner_reply.ok());
  ASSERT_TRUE(runner_reply->at("ok").AsBool());
  JobId runner_id = static_cast<JobId>(runner_reply->at("job").AsNumber());

  std::string cancel_out = testing::TempDir() + "/serd_serve_cancel_out";
  std::filesystem::remove_all(cancel_out);
  obs::Json victim = synth_request();
  victim.Set("wait", false);
  victim.Set("out", cancel_out);
  auto victim_reply = client.Call(victim);
  ASSERT_TRUE(victim_reply.ok());
  ASSERT_TRUE(victim_reply->at("ok").AsBool());
  JobId victim_id = static_cast<JobId>(victim_reply->at("job").AsNumber());

  obs::Json cancel = obs::Json::Object();
  cancel.Set("verb", "cancel");
  cancel.Set("id", victim_id);
  auto cancel_reply = client.Call(cancel);
  ASSERT_TRUE(cancel_reply.ok());
  EXPECT_TRUE(cancel_reply->at("ok").AsBool()) << cancel_reply->Dump();

  obs::Json wait_victim = obs::Json::Object();
  wait_victim.Set("verb", "job");
  wait_victim.Set("id", victim_id);
  wait_victim.Set("wait", true);
  auto victim_final = client.Call(wait_victim);
  ASSERT_TRUE(victim_final.ok());
  EXPECT_FALSE(victim_final->at("ok").AsBool());
  EXPECT_EQ(victim_final->at("state").AsString(), "cancelled");
  EXPECT_EQ(victim_final->at("code").AsString(), "Cancelled");
  EXPECT_EQ(victim_final->at("cause").AsString(), "client_cancel");
  EXPECT_FALSE(std::filesystem::exists(cancel_out));

  // Cancelling an unknown job is NotFound, not a crash.
  obs::Json cancel_unknown = obs::Json::Object();
  cancel_unknown.Set("verb", "cancel");
  cancel_unknown.Set("id", static_cast<uint64_t>(424242));
  auto unknown_reply = client.Call(cancel_unknown);
  ASSERT_TRUE(unknown_reply.ok());
  EXPECT_EQ(unknown_reply->at("code").AsString(), "NotFound");

  // Let the real jobs settle so the reload below sees a resident entry.
  for (JobId id : {blocker_id, runner_id}) {
    obs::Json wait_req = obs::Json::Object();
    wait_req.Set("verb", "job");
    wait_req.Set("id", id);
    wait_req.Set("wait", true);
    auto done = client.Call(wait_req);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done->at("ok").AsBool()) << done->Dump();
  }

  // Reload: the resident entry was loaded unversioned (version 0), so
  // the first reload always swaps; the second is a fingerprint-matched
  // no-op.
  obs::Json reload = obs::Json::Object();
  reload.Set("verb", "reload");
  reload.Set("dataset", "dblp-acm");
  reload.Set("scale", 0.02);
  reload.Set("data_seed", static_cast<uint64_t>(3));
  reload.Set("model_dir", model_dir);
  auto reload_reply = client.Call(reload);
  ASSERT_TRUE(reload_reply.ok());
  EXPECT_TRUE(reload_reply->at("ok").AsBool()) << reload_reply->Dump();
  EXPECT_NE(reload_reply->at("version").AsNumber(), 0.0);
  EXPECT_TRUE(reload_reply->at("reloaded").AsBool());

  auto reload_again = client.Call(reload);
  ASSERT_TRUE(reload_again.ok());
  EXPECT_TRUE(reload_again->at("ok").AsBool());
  EXPECT_FALSE(reload_again->at("reloaded").AsBool());

  obs::Json stats = obs::Json::Object();
  stats.Set("verb", "stats");
  auto stats_reply = client.Call(stats);
  ASSERT_TRUE(stats_reply.ok());
  const obs::Json& counters = stats_reply->at("metrics").at("counters");
  EXPECT_EQ(counters.at("pool.reloads").AsNumber(), 1.0);
  EXPECT_EQ(counters.at("scheduler.cancelled").AsNumber(), 1.0);
  EXPECT_EQ(counters.at("scheduler.deadline_exceeded").AsNumber(), 1.0);
  // Every lease was returned: cancelled and expired jobs don't leak pins.
  const obs::Json& gauges = stats_reply->at("metrics").at("gauges");
  EXPECT_EQ(gauges.at("pool.pinned").AsNumber(), 0.0);

  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace serd
