// serd_perfbench: runs one benchmark workload and writes its run report.
//
//   serd_perfbench --workload serve-shared|serve-churn
//                  --seed N --seconds S --trace 0|1
//                  --work-dir DIR --report FILE.json
//
// The report holds the metrics (end-to-end when --trace 0, per-layer
// when --trace 1), the work-identity counts, the samples behind each
// metric and every failed check. A traced run also writes its spans as
// Chrome trace-event JSON next to the report (FILE.trace.json). Exit
// code: 0 when every operation and check passed, 1 when one failed, 2 on
// bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/manifest.h"
#include "bench.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;
namespace obs = serd::obs;

int Usage() {
  std::fprintf(stderr,
               "usage: serd_perfbench --workload "
               "serve-shared|serve-churn --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --report FILE.json\n");
  return 2;
}

obs::Json ReportJson(const RunArgs& args, const RunResult& result) {
  obs::Json report = obs::Json::Object();
  report.Set("workload", args.workload);
  report.Set("seed", args.seed);
  report.Set("seconds", args.seconds);
  report.Set("trace", args.trace);
  report.Set("correct", result.failed == 0 && result.attempted > 0);
  report.Set("attempted", result.attempted);
  report.Set("failed", result.failed);
  obs::Json failures = obs::Json::Array();
  for (const std::string& f : result.failures) {
    failures.Append(obs::Json::Str(f));
  }
  report.Set("failures", std::move(failures));
  obs::Json metrics = obs::Json::Object();
  for (const RunResult::Metric& m : result.metrics) {
    obs::Json metric = obs::Json::Object();
    metric.Set("value", m.value);
    metric.Set("unit", m.unit);
    metrics.Set(m.name, std::move(metric));
  }
  report.Set("metrics", std::move(metrics));
  report.Set("identity", result.identity);
  report.Set("detail", result.detail);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string report_path;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--report") {
      report_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || args.seconds < 1 ||
      args.work_dir.empty() || report_path.empty()) {
    return Usage();
  }

  // glibc gives each allocating thread its own arena (up to 8 per core),
  // so the process's peak RSS depends on which threads happened to
  // allocate where: same-seed runs differed by 9%. Two arenas make
  // peak_rss_mb repeat to about 2.5%.
  mallopt(M_ARENA_MAX, 2);

  RunResult result;
  if (args.workload == "serve-shared") {
    result = perfbench::RunServe(args, /*churn=*/false);
  } else if (args.workload == "serve-churn") {
    result = perfbench::RunServe(args, /*churn=*/true);
  } else {
    return Usage();
  }

  obs::Json report = ReportJson(args, result);
  if (args.trace) {
    const std::string trace_path =
        report_path.substr(0, report_path.rfind(".json")) + ".trace.json";
    report.Set("spans", perfbench::SpanTable());
    report.Set("trace_file", trace_path);
    const serd::Status wrote = perfbench::WriteTrace(trace_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "trace: %s\n", wrote.ToString().c_str());
    }
  }
  const serd::Status wrote = obs::WriteTextFile(report_path, report.Dump());
  if (!wrote.ok()) {
    std::fprintf(stderr, "report: %s\n", wrote.ToString().c_str());
    return 1;
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
