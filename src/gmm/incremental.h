#ifndef SERD_GMM_INCREMENTAL_H_
#define SERD_GMM_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "gmm/gmm.h"

namespace serd {

/// Incremental GMM maintenance for entity rejection (paper Section V,
/// Eqs. 8-9). Instead of refitting on all synthesized pairs each time an
/// entity is added, we keep per-component sufficient statistics
///   Gamma_k = sum_i gamma_{i,k}
///   m_k     = sum_i gamma_{i,k} x_i
///   S_k     = sum_i gamma_{i,k} x_i x_i^T
/// and fold in the new points' responsibilities (computed against the
/// current parameters, Eq. 8). The updated parameters
///   mu_k = m_k / Gamma_k,  Sigma_k = S_k / Gamma_k - mu_k mu_k^T,
///   pi_k = Gamma_k / n
/// are algebraically identical to the paper's Eq. 9 (the scatter form
/// around the *updated* mean expands to exactly these moments).
///
/// Updates are two-phase: Preview() computes the would-be model without
/// changing the committed state, so the rejection test can discard it;
/// Commit() adopts the latest preview, model included, without rebuilding
/// it. A preview is built in place, in buffers the next preview reuses,
/// and a commit swaps those buffers with the committed ones, so once they
/// are sized a preview allocates nothing (DESIGN.md §5e).
class IncrementalGmm {
 public:
  IncrementalGmm() = default;

  /// Seeds the statistics from a fitted model and its supporting data
  /// (one E-step pass over `data`).
  IncrementalGmm(const Gmm& model, const std::vector<Vec>& data,
                 double ridge = 1e-6);

  size_t num_points() const { return stats_.count; }
  const Gmm& model() const { return *model_; }
  /// The current model, shared. A model is never changed while anyone
  /// but this object holds it.
  std::shared_ptr<const Gmm> shared_model() const { return model_; }
  /// Commits so far that changed the model: the committed model's
  /// version. An object reused as a buffer keeps its address across
  /// versions, so this, not the address, names the committed model.
  uint64_t version() const { return version_; }

  /// Sufficient statistics of a point set: per component Gamma_k, m_k and
  /// S_k, plus the point count. Both the model's state and an update are
  /// held this way.
  struct Delta {
    std::vector<double> gamma_sum;   // per component
    std::vector<Vec> weighted_sum;   // per component, dimension d
    std::vector<Matrix> second_moment;  // per component, d x d
    size_t count = 0;
  };

  /// Computes the delta statistics for `points` (paper Eq. 8) against the
  /// current model. Does not mutate state.
  Delta ComputeDelta(const std::vector<Vec>& points) const {
    return ComputeDelta(points.data(), points.size());
  }
  Delta ComputeDelta(const Vec* points, size_t count) const;

  /// A previewed update: the model rebuilt from the statistics with the
  /// points folded in (paper Eq. 9). Its statistics stay in this object.
  struct Update {
    std::shared_ptr<const Gmm> model;
    /// The delta held no points and the current model was already rebuilt
    /// from the current statistics, so `model` is the current model.
    /// Every statistic is a sum that starts at +0, which is never -0, so
    /// adding the zero delta changes no bit, and the rebuild is a pure
    /// function of the statistics.
    bool unchanged = false;
  };

  /// The update that folding in points[0, count) would make. Its model
  /// equals PreviewModel(ComputeDelta(points)) bit for bit. The next
  /// Preview reuses this one's buffers, so only the latest preview can be
  /// committed.
  Update Preview(const Vec* points, size_t count);

  /// Adopts the latest Preview: its statistics and model.
  void Commit(Update update);

  /// The model that would result from folding in `delta` (paper Eq. 9),
  /// always rebuilt through the constructors: the reference for Preview.
  Gmm PreviewModel(const Delta& delta) const;

  /// Adopts the delta: statistics and the current model are updated.
  void Commit(const Delta& delta);

 private:
  /// Sizes `delta` for the model's shape and zeroes it.
  void Reset(Delta* delta) const;
  /// Adds the statistics of points[0, count) into `delta` (paper Eq. 8),
  /// point by point in order.
  void AddPoints(const Vec* points, size_t count, Delta* delta) const;
  /// out = a + b, statistic by statistic (out sized like a).
  static void Sum(const Delta& a, const Delta& b, Delta* out);

  /// The model of `stats` (paper Eq. 9); components with no mass keep the
  /// current model's parameters.
  Gmm RebuildModel(const Delta& stats) const;
  /// RebuildModel(stats) into `out`, a model of the same shape, reusing
  /// its storage: the same bits.
  void RebuildInto(const Delta& stats, Gmm* out) const;

  std::shared_ptr<Gmm> model_;
  Delta stats_;
  double ridge_ = 1e-6;
  /// model_ is RebuildModel(stats_): true once anything was committed (the
  /// seed model is the EM fit).
  bool rebuilt_ = false;
  uint64_t version_ = 0;
  /// The latest preview's delta, statistics and model: reused buffers.
  Delta delta_;
  Delta preview_stats_;
  std::shared_ptr<Gmm> preview_model_;
};

}  // namespace serd

#endif  // SERD_GMM_INCREMENTAL_H_
