#include "obs/trace.h"

namespace serd::obs {

TraceSpan::TraceSpan(MetricsRegistry* registry, const std::string& name) {
  if (registry == nullptr) return;
  hist_ = registry->timer(name);
  calls_ = registry->counter(name + ".calls");
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::TraceSpan(Histogram* hist) : hist_(hist) {
  if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
}

double TraceSpan::Stop() {
  if (hist_ == nullptr) return 0.0;
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  hist_->Record(seconds);
  Inc(calls_);
  hist_ = nullptr;
  calls_ = nullptr;
  return seconds;
}

TraceSpan::~TraceSpan() { Stop(); }

}  // namespace serd::obs
