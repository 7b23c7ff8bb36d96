#ifndef SERD_SEQ2SEQ_TRAINER_H_
#define SERD_SEQ2SEQ_TRAINER_H_

#include <string>
#include <utility>
#include <vector>

#include "dp/accountant.h"
#include "dp/dp_sgd.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "seq2seq/transformer.h"
#include "text/char_vocab.h"

namespace serd {

/// Training options for one transformer model (paper Algorithm 1).
struct Seq2SeqTrainOptions {
  int epochs = 3;
  int batch_size = 16;
  float learning_rate = 2e-3f;
  DpSgdConfig dp;          ///< clip bound V, noise scale sigma
  uint64_t seed = 7;
  /// Worker pool for each lot's per-example forward/backward + clipping,
  /// its noise draw, and its merge and finish split by parameter (not
  /// owned; nullptr = serial). Each example draws its dropout stream from
  /// the seed and its global example index, the noise comes from one
  /// sequential stream, and clipped gradients merge in example order, so
  /// the trained weights are bit-identical for any pool size.
  runtime::ThreadPool* pool = nullptr;

  /// Observability sink (not owned; nullptr = off): counters seq2seq.steps /
  /// seq2seq.examples_clipped / seq2seq.examples_total, histograms
  /// seq2seq.epoch_loss and dp.epsilon_per_epoch, gauge dp.epsilon, timer
  /// seq2seq.train. All values are computed from the ordered example merge,
  /// so they are thread-count independent.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Result of a training run, including the DP guarantee actually spent.
struct Seq2SeqTrainReport {
  int steps = 0;
  double final_loss = 0.0;
  double epsilon = 0.0;  ///< at delta = train delta (1e-5 unless overridden)
  double delta = 1e-5;
  /// Mean loss after each epoch (length = epochs).
  std::vector<double> epoch_losses;
  /// Privacy spent after each epoch at `delta` (length = epochs when DP is
  /// on, empty otherwise). Monotone non-decreasing.
  std::vector<double> epoch_epsilons;
  /// Examples whose pre-clip gradient norm exceeded the clip bound V.
  long clipped_examples = 0;
  long total_examples = 0;
};

/// Trains `model` on (source, target) string pairs with differentially
/// private SGD: per-example gradient clipping, Gaussian noise, Adam on the
/// noisy averaged gradients. This is paper Algorithm 1 with the gradient-
/// descent step generalized to Adam (the DP analysis only concerns the
/// noisy gradient, not the optimizer that consumes it).
Seq2SeqTrainReport TrainSeq2Seq(
    TransformerSeq2Seq* model, const CharVocab& vocab,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const Seq2SeqTrainOptions& options);

}  // namespace serd

#endif  // SERD_SEQ2SEQ_TRAINER_H_
