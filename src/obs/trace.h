#ifndef SERD_OBS_TRACE_H_
#define SERD_OBS_TRACE_H_

#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace serd::obs {

/// RAII trace span: times a scope and records the elapsed seconds into
/// the registry's `<name>` timing histogram plus a `<name>.calls`
/// counter on destruction (or on Stop(), whichever comes first).
///
/// With a null registry the constructor resolves no metrics and never
/// reads the clock, so a disabled span costs two pointer writes — the
/// "compiled to near-zero when observability is off" contract.
class TraceSpan {
 public:
  TraceSpan(MetricsRegistry* registry, const std::string& name);

  /// A stage timer: records into `hist`, a timing histogram resolved once
  /// outside the loop that times the stage, and keeps no `.calls` counter.
  /// A null `hist` reads no clock.
  explicit TraceSpan(Histogram* hist);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early; the destructor then records nothing more.
  /// Returns the elapsed seconds (0.0 when disabled).
  double Stop();

 private:
  Histogram* hist_ = nullptr;
  Counter* calls_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace serd::obs

#endif  // SERD_OBS_TRACE_H_
