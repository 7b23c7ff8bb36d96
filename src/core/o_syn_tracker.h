#ifndef SERD_CORE_O_SYN_TRACKER_H_
#define SERD_CORE_O_SYN_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gmm/gmm.h"
#include "gmm/incremental.h"
#include "gmm/o_distribution.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace serd {

/// One kind of S2 event: Add() bumps its report field and its live counter
/// together (callers poll the counters mid-run).
template <typename Field>
struct S2Event {
  Field* field;
  obs::Counter* counter;
  void Add(size_t n = 1) {
    *field += static_cast<Field>(n);
    obs::Inc(counter, n);
  }
};

/// O_syn (paper Section V, case 2), the synthesized pairs' M- and
/// N-distributions: kept as vectors until the warm-up fit, then tracked
/// incrementally (Eq. 9) with their JSD to O_real. Every estimate is
/// against O_real with the same seed, so O_real's half of it is drawn and
/// scored once per run, by the estimator the first estimate builds.
class OSynTracker {
 public:
  /// An attempt's O_syn: each arm with the attempt's pairs folded in, and
  /// its JSD to O_real.
  struct Preview {
    IncrementalGmm::Update m, n;
    size_t num_pos, num_neg;
    double jsd = 0.0;
  };

  /// `o_real` must outlive the tracker. `metrics` may be null; then no
  /// timer records.
  OSynTracker(const ODistribution& o_real, int jsd_samples, uint64_t jsd_seed,
              runtime::ThreadPool* pool, obs::MetricsRegistry* metrics,
              S2Event<long> jsd_evaluations);

  /// True once the warm-up fit has succeeded.
  bool tracking() const { return m_syn_ != nullptr; }
  /// The committed O_syn's JSD, as its commit (or the warm-up fit)
  /// estimated it: the bar of the next Eq. 10 test.
  double jsd() const { return jsd_; }
  /// The committed O_syn, once tracking.
  ODistribution Committed() const;

  void AddWarmUp(const Vec* pos, size_t num_pos, const Vec* neg,
                 size_t num_neg);

  /// Once each arm holds 4 vectors, an AIC fit of each (at most S1's
  /// component count) starts the tracking, and the fitted O_syn's JSD is
  /// the first bar. A failed fit leaves the tracker warming up.
  void FitWarmUp(GmmFitOptions fit, int m_components, int n_components);

  /// The attempt's previews and their JSD. The next PreviewWith reuses
  /// this one's buffers, so only the latest preview can be committed.
  Preview PreviewWith(const Vec* pos, size_t num_pos, const Vec* neg,
                      size_t num_neg);

  /// Adopts an accepted attempt's preview as it was built; its JSD, an
  /// estimate of the O_syn now committed, is the next bar.
  void Commit(Preview p);

 private:
  /// An arm previewed without new pairs is its committed model, so its
  /// log-densities at the estimator's stored O_real draws carry over from
  /// the last estimate that computed them. The cache is keyed on the
  /// committed model's version: previews rebuild models in reused
  /// objects, so an address does not name a model.
  struct StoredArm {
    std::optional<uint64_t> version;
    std::vector<double> log_pdf;
  };

  /// π_syn, the tracked pairs' match share, kept inside [0.001, 0.999] so
  /// that neither arm's weight vanishes.
  static double PiSyn(size_t pos, size_t neg);

  /// The updates, when given, are the previews o_syn was built from.
  double Estimate(const ODistribution& o_syn,
                  const IncrementalGmm::Update* m_update = nullptr,
                  const IncrementalGmm::Update* n_update = nullptr);

  /// The stored log-densities of an unchanged arm's committed model, or
  /// null for an arm the preview rebuilt.
  const double* StoredLogPdf(const IncrementalGmm::Update* update,
                             const IncrementalGmm& syn, StoredArm* arm);

  const ODistribution* o_real_;
  const int jsd_samples_;
  const uint64_t jsd_seed_;
  runtime::ThreadPool* pool_;
  S2Event<long> jsd_evaluations_;
  obs::Histogram* jsd_seconds_;
  obs::Histogram* preview_seconds_;
  std::vector<Vec> warm_pos_, warm_neg_;
  std::unique_ptr<IncrementalGmm> m_syn_, n_syn_;
  size_t pos_count_ = 0, neg_count_ = 0;
  double jsd_ = 0.0;
  std::optional<JsdEstimator> estimator_;
  StoredArm m_stored_, n_stored_;
};

}  // namespace serd

#endif  // SERD_CORE_O_SYN_TRACKER_H_
