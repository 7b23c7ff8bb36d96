#include "core/o_syn_tracker.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace serd {

OSynTracker::OSynTracker(const ODistribution& o_real, int jsd_samples,
                         uint64_t jsd_seed, runtime::ThreadPool* pool,
                         obs::MetricsRegistry* metrics,
                         S2Event<long> jsd_evaluations)
    : o_real_(&o_real),
      jsd_samples_(jsd_samples),
      jsd_seed_(jsd_seed),
      pool_(pool),
      jsd_evaluations_(jsd_evaluations),
      jsd_seconds_(obs::GetTimer(metrics, "s2.jsd_seconds")),
      preview_seconds_(obs::GetTimer(metrics, "s2.preview_seconds")) {}

ODistribution OSynTracker::Committed() const {
  return ODistribution(PiSyn(pos_count_, neg_count_), m_syn_->shared_model(),
                       n_syn_->shared_model());
}

void OSynTracker::AddWarmUp(const Vec* pos, size_t num_pos, const Vec* neg,
                            size_t num_neg) {
  warm_pos_.insert(warm_pos_.end(), pos, pos + num_pos);
  warm_neg_.insert(warm_neg_.end(), neg, neg + num_neg);
}

void OSynTracker::FitWarmUp(GmmFitOptions fit, int m_components,
                            int n_components) {
  if (warm_pos_.size() < 4 || warm_neg_.size() < 4) return;
  fit.max_components = std::max(m_components, 1);
  auto m0 = Gmm::FitWithAic(warm_pos_, fit);
  fit.max_components = std::max(n_components, 1);
  auto n0 = Gmm::FitWithAic(warm_neg_, fit);
  if (!m0.ok() || !n0.ok()) return;
  m_syn_ = std::make_unique<IncrementalGmm>(m0.value(), warm_pos_);
  n_syn_ = std::make_unique<IncrementalGmm>(n0.value(), warm_neg_);
  pos_count_ = warm_pos_.size();
  neg_count_ = warm_neg_.size();
  jsd_ = Estimate(Committed());
}

OSynTracker::Preview OSynTracker::PreviewWith(const Vec* pos, size_t num_pos,
                                              const Vec* neg,
                                              size_t num_neg) {
  obs::TraceSpan preview_span(preview_seconds_);
  Preview p{m_syn_->Preview(pos, num_pos), n_syn_->Preview(neg, num_neg),
            num_pos, num_neg};
  preview_span.Stop();
  p.jsd = Estimate(ODistribution(PiSyn(pos_count_ + num_pos,
                                       neg_count_ + num_neg),
                                 p.m.model, p.n.model),
                   &p.m, &p.n);
  return p;
}

void OSynTracker::Commit(Preview p) {
  m_syn_->Commit(std::move(p.m));
  n_syn_->Commit(std::move(p.n));
  pos_count_ += p.num_pos;
  neg_count_ += p.num_neg;
  jsd_ = p.jsd;
}

double OSynTracker::PiSyn(size_t pos, size_t neg) {
  const double pi = static_cast<double>(pos) /
                    static_cast<double>(std::max<size_t>(1, pos + neg));
  return std::clamp(pi, 0.001, 0.999);
}

double OSynTracker::Estimate(const ODistribution& o_syn,
                             const IncrementalGmm::Update* m_update,
                             const IncrementalGmm::Update* n_update) {
  jsd_evaluations_.Add();
  obs::TraceSpan span(jsd_seconds_);
  if (!estimator_.has_value()) {
    estimator_.emplace(*o_real_, jsd_samples_, jsd_seed_, pool_);
  }
  return estimator_->Estimate(o_syn,
                              StoredLogPdf(m_update, *m_syn_, &m_stored_),
                              StoredLogPdf(n_update, *n_syn_, &n_stored_));
}

const double* OSynTracker::StoredLogPdf(const IncrementalGmm::Update* update,
                                        const IncrementalGmm& syn,
                                        StoredArm* arm) {
  if (update == nullptr || !update->unchanged) return nullptr;
  if (arm->version != syn.version()) {
    estimator_->StoredArmLogPdf(*update->model, &arm->log_pdf);
    arm->version = syn.version();
  }
  return arm->log_pdf.data();
}

}  // namespace serd
