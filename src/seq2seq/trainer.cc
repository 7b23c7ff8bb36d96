#include "seq2seq/trainer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "nn/arena.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/sharded_rng.h"

namespace serd {

namespace {

/// Salt separating per-example dropout streams from other uses of the
/// training seed.
constexpr uint64_t kDropoutSalt = 0x5eedd40b0a5a17e5ULL;

}  // namespace

Seq2SeqTrainReport TrainSeq2Seq(
    TransformerSeq2Seq* model, const CharVocab& vocab,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const Seq2SeqTrainOptions& options) {
  SERD_CHECK(model != nullptr);
  SERD_CHECK(!pairs.empty());
  obs::TraceSpan train_span(options.metrics, "seq2seq.train");
  Rng rng(options.seed);
  Rng noise_rng = rng.Fork();
  // Dropout no longer draws from a shared sequential stream (each example
  // derives its own stream below), but the fork is kept so the shuffle
  // stream in `rng` is unchanged.
  (void)rng.Fork();

  // Pre-encode all pairs.
  std::vector<std::pair<std::vector<int>, std::vector<int>>> encoded;
  encoded.reserve(pairs.size());
  for (const auto& [src, tgt] : pairs) {
    encoded.emplace_back(vocab.Encode(src), vocab.Encode(tgt));
  }

  nn::Adam optimizer(model->parameters(), options.learning_rate);
  PerExampleGradAccumulator accumulator(model->parameters(), options.dp);

  const size_t n = encoded.size();
  const size_t batch = std::min<size_t>(
      std::max(1, options.batch_size), n);

  // Forward/backward replicas. Replica 0 is the trained model itself;
  // extra replicas are value-synced copies so concurrent Backward calls
  // never share gradient buffers. More replicas than examples per batch
  // would never all be in flight at once.
  const size_t executors =
      options.pool != nullptr ? options.pool->num_threads() + 1 : 1;
  const size_t num_replicas = std::max<size_t>(1, std::min(executors, batch));
  std::vector<std::unique_ptr<TransformerSeq2Seq>> extra_replicas;
  for (size_t r = 1; r < num_replicas; ++r) {
    Rng init_rng(options.seed + r);  // overwritten by the per-batch sync
    extra_replicas.push_back(
        std::make_unique<TransformerSeq2Seq>(model->config(), &init_rng));
  }
  auto replica_model = [&](size_t r) {
    return r == 0 ? model : extra_replicas[r - 1].get();
  };
  // One tensor arena per replica: a replica is held by exactly one worker
  // at a time, so the arena is never shared, and resetting it when the
  // replica is acquired recycles the previous example's intermediate
  // tensors (steady-state training allocates nothing per op).
  std::vector<nn::TensorArena> arenas(num_replicas);
  auto sync_replicas = [&]() {
    const auto& master = model->parameters();
    for (auto& rep : extra_replicas) {
      const auto& params = rep->parameters();
      SERD_CHECK_EQ(params.size(), master.size());
      for (size_t pi = 0; pi < master.size(); ++pi) {
        params[pi]->value() = master[pi]->value();
      }
    }
  };

  Seq2SeqTrainReport report;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  // Per-example buffers, sized for the largest lot and reused by every
  // lot, so steady-state lots allocate no gradient slots.
  std::vector<PerExampleGradAccumulator::ClippedGrad> slots(batch);
  std::vector<double> losses(batch, 0.0);
  std::vector<double> norms(batch, 0.0);
  std::vector<size_t> free_replicas;
  free_replicas.reserve(num_replicas);
  std::mutex free_mu;

  // The accountant is a pure function of (q, sigma); building it up front
  // lets each epoch report the epsilon trajectory as it is spent.
  const bool dp_on = options.dp.enabled && options.dp.noise_multiplier > 0.0;
  const double q =
      std::min(1.0, static_cast<double>(batch) / static_cast<double>(n));
  std::unique_ptr<RdpAccountant> accountant;
  if (dp_on) {
    accountant =
        std::make_unique<RdpAccountant>(q, options.dp.noise_multiplier);
  }

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t epoch_examples = 0;
    for (size_t start = 0; start < n; start += batch) {
      const size_t end = std::min(n, start + batch);
      const size_t bs = end - start;
      optimizer.ZeroGrad();
      sync_replicas();
      free_replicas.clear();
      for (size_t r = 0; r < num_replicas; ++r) free_replicas.push_back(r);

      // Chunk 0 draws the lot's noise, which depends on no gradient, so it
      // overlaps the examples; chunk 1 + k runs example k. Each example
      // runs on whichever replica is free, but its dropout stream comes
      // from its global example index and its clipped gradient lands in
      // its own slot, so nothing depends on the example-to-thread
      // assignment.
      runtime::ParallelFor(
          options.pool, 0, bs + 1, 1, [&](size_t lo, size_t hi) {
            for (size_t chunk = lo; chunk < hi; ++chunk) {
              if (chunk == 0) {
                accumulator.DrawNoise(&noise_rng);
                continue;
              }
              const size_t k = chunk - 1;
              size_t rid;
              {
                std::lock_guard<std::mutex> lock(free_mu);
                SERD_CHECK(!free_replicas.empty());
                rid = free_replicas.back();
                free_replicas.pop_back();
              }
              TransformerSeq2Seq* m = replica_model(rid);
              const auto& [src, tgt] = encoded[order[start + k]];
              const uint64_t example_id =
                  static_cast<uint64_t>(epoch) * n + (start + k);
              Rng ex_rng(runtime::ShardedRng::DeriveSeed(
                  options.seed ^ kDropoutSalt, example_id));
              nn::Tape tape;
              arenas[rid].Reset();
              tape.set_arena(&arenas[rid]);
              auto loss = m->Loss(&tape, src, tgt, &ex_rng);
              losses[k] = loss->value()[0];
              tape.Backward(loss);
              norms[k] = accumulator.ClipInto(m->parameters(), &slots[k]);
              {
                std::lock_guard<std::mutex> lock(free_mu);
                free_replicas.push_back(rid);
              }
            }
          });

      for (size_t k = 0; k < bs; ++k) {
        epoch_loss += losses[k];
        ++epoch_examples;
        if (options.dp.enabled && norms[k] > options.dp.clip_norm) {
          ++report.clipped_examples;
        }
      }
      report.total_examples += static_cast<long>(bs);
      // Ordered merge, noise and 1/J, split by parameter: each element's
      // sum runs over the examples in lot order, so it is a function of
      // the example order alone.
      accumulator.FinishLot(slots, bs, options.pool);
      optimizer.Step();
      ++report.steps;
    }
    last_epoch_loss = epoch_loss / std::max<size_t>(1, epoch_examples);
    report.epoch_losses.push_back(last_epoch_loss);
    if (accountant != nullptr) {
      accountant->AddSteps(report.steps - accountant->steps());
      double eps = accountant->Epsilon(report.delta);
      report.epoch_epsilons.push_back(eps);
      if (options.metrics != nullptr) {
        options.metrics
            ->histogram("dp.epsilon_per_epoch", obs::LinearBounds(0.0, 32.0, 16))
            ->Record(eps);
      }
    }
    obs::Observe(obs::GetHistogram(options.metrics, "seq2seq.epoch_loss",
                                   obs::LinearBounds(0.0, 16.0, 16)),
                 last_epoch_loss);
    if (options.verbose) {
      SERD_LOG(kInfo) << "seq2seq epoch " << epoch << " loss "
                      << last_epoch_loss;
    }
  }
  report.final_loss = last_epoch_loss;

  if (accountant != nullptr) {
    report.epsilon = accountant->Epsilon(report.delta);
  } else {
    report.epsilon = std::numeric_limits<double>::infinity();
  }
  if (options.metrics != nullptr) {
    obs::Inc(options.metrics->counter("seq2seq.steps"),
             static_cast<uint64_t>(report.steps));
    obs::Inc(options.metrics->counter("seq2seq.examples_total"),
             static_cast<uint64_t>(report.total_examples));
    obs::Inc(options.metrics->counter("seq2seq.examples_clipped"),
             static_cast<uint64_t>(report.clipped_examples));
    if (dp_on) options.metrics->gauge("dp.epsilon")->Set(report.epsilon);
  }
  return report;
}

}  // namespace serd
