// The SERD benchmark harness: run arguments, the result a workload hands
// back to main(), seed derivation, order statistics, registry tallies and
// the benchmark's own span recorder.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

namespace obs = serd::obs;
using serd::Status;

/// Inputs of one run, as given on the command line.
struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Working directory for artifacts and releases; the caller removes
  /// it.
  std::string work_dir;
};

/// What a workload reports. main() writes it out as the run report.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  /// End-to-end metrics in an untraced run, per-layer metrics in a
  /// traced one.
  std::vector<Metric> metrics;
  /// The program's own work counts; equal across runs of one program
  /// and seed.
  obs::Json identity = obs::Json::Object();
  /// Samples, decompositions and check outcomes behind the metrics.
  obs::Json detail = obs::Json::Object();
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a false `ok` makes it a failed one.
  void Check(bool ok, const std::string& what);
};

/// The workloads: closed-loop synthesize jobs from two clients against an
/// in-process SerdServer, on serve-shared (every job on one tenant's warm
/// entry) or, with `churn`, serve-churn (more tenants than the pool
/// holds, so every job loads its entry and evicts another).
RunResult RunServe(const RunArgs& args, bool churn);

// ---- seeds --------------------------------------------------------------

/// Independent seed streams derived from the workload seed.
enum class Stream : uint64_t {
  kJobs = 1,
  kWarmup = 2,
  kProbe = 4,
  /// Fixed-seed jobs and evaluations behind release_jsd.
  kQuality = 5,
};

/// Seed `index` of `stream`. Masked to 48 bits: serve requests carry
/// seeds as JSON numbers (doubles), which hold integers exactly only
/// below 2^53.
uint64_t DeriveSeed(uint64_t workload_seed, Stream stream, uint64_t index);

// ---- statistics ---------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it; with
/// twenty samples or fewer, the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

obs::Json ToJson(const std::vector<double>& values);

// ---- registry snapshots -------------------------------------------------

/// A metrics snapshot flattened to numbers: counters and gauges by name,
/// histograms as "<name>.count" and "<name>.sum". Tallies add and
/// subtract, so a delta over a window and a sum over releases are the
/// same operation.
class Tally {
 public:
  Tally() = default;
  static Tally Of(const obs::MetricsRegistry::Snapshot& snapshot);
  /// From a "metrics" block of the manifest or stats verb.
  static Tally Of(const obs::Json& metrics);

  /// 0 when absent.
  double operator()(const std::string& key) const;
  void Add(const Tally& other, double sign = 1.0);

 private:
  std::map<std::string, double> values_;
};

// ---- spans --------------------------------------------------------------

/// Turns span recording on for the rest of the process. Spans are kept in
/// memory and written by WriteTrace().
void EnableTracing();
bool TracingEnabled();

/// Writes every recorded span as Chrome trace-event JSON (opens in
/// Perfetto or chrome://tracing).
Status WriteTrace(const std::string& path);

/// Per span name: count, total seconds and self seconds (duration minus
/// the part covered by child spans).
obs::Json SpanTable();

/// A timed scope. Always measures; records a span (name, start, end,
/// parent, job id, thread) only while tracing is enabled. The parent is
/// the innermost open span on the same thread.
class Span {
 public:
  explicit Span(const char* name, int64_t job = -1);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

 private:
  const char* name_;
  int64_t job_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool open_ = true;
  double seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
