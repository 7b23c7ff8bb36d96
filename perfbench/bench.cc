#include "bench.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "obs/manifest.h"
#include "runtime/sharded_rng.h"

namespace perfbench {

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

uint64_t DeriveSeed(uint64_t workload_seed, Stream stream, uint64_t index) {
  using serd::runtime::ShardedRng;
  const uint64_t root =
      ShardedRng::DeriveSeed(workload_seed, static_cast<uint64_t>(stream));
  return ShardedRng::DeriveSeed(root, index) & ((uint64_t{1} << 48) - 1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 20) {  // that percentile would not lie above the median
    tail.value = values.back();
    return tail;
  }
  // values[n - 11] has exactly ten samples above it.
  tail.value = values[n - 11];
  tail.beyond = 10;
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

obs::Json ToJson(const std::vector<double>& values) {
  obs::Json out = obs::Json::Array();
  for (double v : values) out.Append(v);
  return out;
}

Tally Tally::Of(const obs::MetricsRegistry::Snapshot& snapshot) {
  Tally t;
  for (const auto& [name, v] : snapshot.counters) {
    t.values_[name] = static_cast<double>(v);
  }
  for (const auto& [name, v] : snapshot.gauges) t.values_[name] = v;
  for (const auto& [name, h] : snapshot.histograms) {
    t.values_[name + ".count"] = static_cast<double>(h.count);
    t.values_[name + ".sum"] = h.sum;
  }
  return t;
}

Tally Tally::Of(const obs::Json& metrics) {
  Tally t;
  for (const char* block : {"counters", "gauges"}) {
    for (const auto& [name, v] : metrics.at(block).members()) {
      t.values_[name] = v.AsNumber();
    }
  }
  for (const auto& [name, h] : metrics.at("histograms").members()) {
    t.values_[name + ".count"] = h.at("count").AsNumber();
    t.values_[name + ".sum"] = h.at("sum").AsNumber();
  }
  return t;
}

double Tally::operator()(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0.0 : it->second;
}

void Tally::Add(const Tally& other, double sign) {
  for (const auto& [name, v] : other.values_) values_[name] += sign * v;
}

// ---- span recorder ------------------------------------------------------

namespace {

struct SpanEvent {
  const char* name;
  uint64_t id;
  uint64_t parent;
  int64_t job;
  int thread;
  double start_s;  ///< since the recorder's epoch
  double seconds;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_id{1};
  std::atomic<int> next_thread{0};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::mutex mu;
  std::vector<SpanEvent> events;  // guarded by mu
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> open_spans;

int ThreadIndex() {
  thread_local int index = recorder().next_thread.fetch_add(1);
  return index;
}

}  // namespace

void EnableTracing() { recorder().enabled.store(true); }
bool TracingEnabled() { return recorder().enabled.load(); }

Span::Span(const char* name, int64_t job)
    : name_(name), job_(job), start_(std::chrono::steady_clock::now()) {
  if (!TracingEnabled()) return;
  id_ = recorder().next_id.fetch_add(1);
  parent_ = open_spans.empty() ? 0 : open_spans.back();
  open_spans.push_back(id_);
}

double Span::Stop() {
  if (!open_) return seconds_;
  open_ = false;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ == 0) return seconds_;
  auto it = std::find(open_spans.begin(), open_spans.end(), id_);
  if (it != open_spans.end()) open_spans.erase(it);
  Recorder& r = recorder();
  const double start_s =
      std::chrono::duration<double>(start_ - r.epoch).count();
  std::lock_guard<std::mutex> lock(r.mu);
  r.events.push_back(
      {name_, id_, parent_, job_, ThreadIndex(), start_s, seconds_});
  return seconds_;
}

Status WriteTrace(const std::string& path) {
  Recorder& r = recorder();
  obs::Json events = obs::Json::Array();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const SpanEvent& e : r.events) {
    obs::Json ev = obs::Json::Object();
    ev.Set("name", e.name);
    ev.Set("cat", "perfbench");
    ev.Set("ph", "X");
    ev.Set("ts", e.start_s * 1e6);
    ev.Set("dur", e.seconds * 1e6);
    ev.Set("pid", 1);
    ev.Set("tid", e.thread);
    obs::Json args = obs::Json::Object();
    args.Set("id", e.id);
    args.Set("parent", e.parent);
    if (e.job >= 0) args.Set("job", e.job);
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  obs::Json root = obs::Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  return obs::WriteTextFile(path, root.Dump());
}

obs::Json SpanTable() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::map<uint64_t, double> child_seconds;  // parent id -> covered time
  for (const SpanEvent& e : r.events) {
    if (e.parent != 0) child_seconds[e.parent] += e.seconds;
  }
  struct Row {
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanEvent& e : r.events) {
    Row& row = rows[e.name];
    ++row.count;
    row.total += e.seconds;
    auto it = child_seconds.find(e.id);
    row.self += e.seconds - (it == child_seconds.end() ? 0.0 : it->second);
  }
  obs::Json table = obs::Json::Object();
  for (const auto& [name, row] : rows) {
    obs::Json j = obs::Json::Object();
    j.Set("count", row.count);
    j.Set("total_s", row.total);
    j.Set("self_s", row.self);
    table.Set(name, std::move(j));
  }
  return table;
}

}  // namespace perfbench
