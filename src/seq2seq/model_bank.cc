#include "seq2seq/model_bank.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "text/perturb.h"
#include "text/token.h"

namespace serd {

StringSynthesisBank::StringSynthesisBank(StringBankOptions options,
                                         StringSimFn sim)
    : options_(std::move(options)), sim_(std::move(sim)) {
  SERD_CHECK_GT(options_.num_buckets, 0);
  SERD_CHECK_GT(options_.num_candidates, 0);
  SERD_CHECK(sim_ != nullptr);
}

int StringSynthesisBank::BucketOf(double sim) const {
  double clamped = std::clamp(sim, 0.0, 1.0);
  int b = static_cast<int>(clamped * options_.num_buckets);
  return std::min(b, options_.num_buckets - 1);
}

Status StringSynthesisBank::Train(
    const std::vector<std::string>& background_corpus, Rng* rng) {
  if (background_corpus.size() < 2) {
    return Status::InvalidArgument(
        "background corpus needs at least 2 strings");
  }
  SERD_CHECK(rng != nullptr);

  // Word pool for augmentation and refinement.
  corpus_ = background_corpus;
  word_pool_.clear();
  for (const auto& s : corpus_) {
    for (auto& w : WordTokens(s)) word_pool_.push_back(std::move(w));
  }
  std::sort(word_pool_.begin(), word_pool_.end());
  word_pool_.erase(std::unique(word_pool_.begin(), word_pool_.end()),
                   word_pool_.end());

  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(options_.random_pair_samples * 2);

  // (a) Random corpus pairs: populate the low-similarity region.
  for (int i = 0; i < options_.random_pair_samples; ++i) {
    const auto& a = corpus_[rng->UniformInt(corpus_.size())];
    const auto& b = corpus_[rng->UniformInt(corpus_.size())];
    if (a == b) continue;
    pairs.emplace_back(a, b);
  }

  // (b) Perturbation chains: (s, perturb^j(s)) walk from similarity ~1
  // downward, covering the mid/high buckets like near-duplicate crawl
  // entries do.
  const int chains = std::max(1, options_.random_pair_samples / 8);
  for (int i = 0; i < chains; ++i) {
    std::string base = corpus_[rng->UniformInt(corpus_.size())];
    std::string cur = base;
    for (int step = 0; step < 6; ++step) {
      cur = RandomPerturbation(cur, word_pool_, rng);
      if (cur.empty()) break;
      pairs.emplace_back(base, cur);
    }
  }
  return TrainFromPairs(pairs, rng);
}

Status StringSynthesisBank::TrainFromPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs, Rng* rng) {
  SERD_CHECK(rng != nullptr);
  if (pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  WallTimer timer;
  const int k = options_.num_buckets;

  // Bucket pairs by similarity (paper: divide into buckets, train M_i on
  // pairs whose similarity lies in I_i).
  std::vector<std::vector<std::pair<std::string, std::string>>> buckets(k);
  for (const auto& p : pairs) {
    double s = sim_(p.first, p.second);
    auto& bucket = buckets[BucketOf(s)];
    if (static_cast<int>(bucket.size()) < options_.max_pairs_per_bucket) {
      bucket.push_back(p);
    }
  }

  // Vocabulary over everything we may encode.
  std::vector<std::string> vocab_corpus;
  for (const auto& bucket : buckets) {
    for (const auto& p : bucket) {
      vocab_corpus.push_back(p.first);
      vocab_corpus.push_back(p.second);
    }
  }
  for (const auto& s : corpus_) vocab_corpus.push_back(s);
  vocab_.Fit(vocab_corpus);

  TransformerConfig cfg = options_.transformer;
  cfg.vocab_size = vocab_.size();

  models_.clear();
  models_.resize(k);
  stats_ = StringBankStats();
  stats_.pairs_per_bucket.assign(k, 0);
  stats_.bucket_trained.assign(k, false);
  stats_.bucket_hits.assign(k, 0);

  double total_eps = 0.0;
  int trained_models = 0;
  for (int b = 0; b < k; ++b) {
    stats_.pairs_per_bucket[b] = static_cast<int>(buckets[b].size());
    if (static_cast<int>(buckets[b].size()) < options_.min_pairs_per_bucket) {
      continue;  // untrained bucket -> fallback path at synthesis time
    }
    Rng model_rng(options_.train.seed + 31ULL * static_cast<uint64_t>(b));
    auto model = std::make_unique<TransformerSeq2Seq>(cfg, &model_rng);
    Seq2SeqTrainOptions train_opts = options_.train;
    train_opts.seed = options_.train.seed + 1000ULL * (b + 1);
    auto report = TrainSeq2Seq(model.get(), vocab_, buckets[b], train_opts);
    models_[b] = std::move(model);
    stats_.bucket_trained[b] = true;
    if (std::isfinite(report.epsilon)) {
      total_eps += report.epsilon;
      ++trained_models;
    }
  }
  stats_.mean_epsilon = trained_models > 0 ? total_eps / trained_models : 0.0;
  stats_.train_seconds = timer.Seconds();
  trained_ = true;
  set_decode_precision(options_.decode_precision);
  return Status::OK();
}

void StringSynthesisBank::set_decode_precision(nn::DecodePrecision precision) {
  options_.decode_precision = precision;
  for (auto& model : models_) {
    if (model != nullptr) model->QuantizeWeights(precision);
  }
}

Status StringSynthesisBank::RestoreTrained(
    CharVocab vocab, std::vector<std::string> corpus,
    std::vector<std::string> word_pool,
    std::vector<std::unique_ptr<TransformerSeq2Seq>> models,
    StringBankStats stats) {
  const size_t k = models.size();
  if (k == 0) {
    return Status::InvalidArgument("string bank restore: no buckets");
  }
  if (stats.pairs_per_bucket.size() != k || stats.bucket_trained.size() != k ||
      stats.bucket_hits.size() != k) {
    return Status::InvalidArgument(
        "string bank restore: stats vectors disagree with bucket count " +
        std::to_string(k));
  }
  for (size_t b = 0; b < k; ++b) {
    if (models[b] == nullptr) continue;
    if (models[b]->config().vocab_size != vocab.size()) {
      return Status::InvalidArgument(
          "string bank restore: bucket " + std::to_string(b) +
          " model vocab_size " +
          std::to_string(models[b]->config().vocab_size) +
          " != vocabulary size " + std::to_string(vocab.size()));
    }
  }
  options_.num_buckets = static_cast<int>(k);
  vocab_ = std::move(vocab);
  corpus_ = std::move(corpus);
  word_pool_ = std::move(word_pool);
  models_ = std::move(models);
  stats_ = std::move(stats);
  trained_ = true;
  // Models restored with a pre-quantized weight set attached (the artifact
  // load path) already match the requested precision, so QuantizeWeights
  // no-ops on them; any others quantize here.
  set_decode_precision(options_.decode_precision);
  return Status::OK();
}

namespace {

/// Fraction of a candidate's words drawn from a known word pool — a cheap
/// plausibility proxy that penalizes degenerate decoder outputs (random
/// character runs) without a second model.
double PoolWordFraction(const std::string& candidate,
                        const std::vector<std::string>& pool) {
  auto words = WordTokens(candidate);
  if (words.empty()) return 0.0;
  size_t known = 0;
  for (const auto& w : words) {
    known += std::binary_search(pool.begin(), pool.end(), w) ? 1 : 0;
  }
  return static_cast<double>(known) / static_cast<double>(words.size());
}

/// Per-thread LRU of encoder memories keyed by (model uid, source
/// string). The S2 rejection loop retries the same entity several times
/// and each retry re-synthesizes from the same source strings, so a
/// handful of entries absorbs nearly all re-encodes. Keying by the
/// process-unique model uid (not the pointer) means a freed model's
/// address being reused can never alias an entry; being thread-local, the
/// cache affects only speed, never values, so results stay deterministic
/// at any thread count.
struct EncoderMemoryCache {
  struct Entry {
    std::uint64_t uid = 0;
    std::string src;
    EncoderMemoryPtr mem;
    std::uint64_t stamp = 0;
  };
  static constexpr size_t kCapacity = 8;

  std::vector<Entry> entries;
  std::uint64_t tick = 0;

  EncoderMemoryPtr Lookup(std::uint64_t uid, const std::string& src) {
    for (auto& e : entries) {
      if (e.uid == uid && e.src == src) {
        e.stamp = ++tick;
        return e.mem;
      }
    }
    return nullptr;
  }

  void Insert(std::uint64_t uid, const std::string& src,
              EncoderMemoryPtr mem) {
    if (entries.size() < kCapacity) {
      entries.push_back({uid, src, std::move(mem), ++tick});
      return;
    }
    auto oldest = std::min_element(
        entries.begin(), entries.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    *oldest = {uid, src, std::move(mem), ++tick};
  }
};

thread_local EncoderMemoryCache t_encoder_cache;

}  // namespace

std::string StringSynthesisBank::SynthesizeWithModel(int bucket,
                                                     const std::string& s,
                                                     double target_sim,
                                                     Rng* rng,
                                                     BankRun* run) const {
  const auto& model = models_[bucket];
  auto src_ids = vocab_.Encode(s);
  std::string best;
  double best_score = 1e9;
  double best_err = 2.0;
  // Minimum similarity error over every accepted candidate, tracked
  // independently of the best-score candidate: a candidate can be on
  // target (tiny err) yet lose on score to one with a better pool
  // fraction, and that on-target sighting must still stop the loop.
  double min_err = 2.0;
  // Candidates are scored by similarity error plus a small implausibility
  // penalty. Early exit once a candidate is essentially on target:
  // decoding is the dominant online cost (paper Table IV).
  constexpr double kGoodEnough = 0.03;
  // A tripped cancel token ends the candidate draw exactly like an
  // on-target sighting would: the early-stop callback returns false and
  // the decoder abandons the remaining candidates/steps. The run-level
  // poll in SerdSynthesizer::Synthesize then discards whatever this call
  // returns, so cancellation never changes released bytes.
  auto keep_going = [&] {
    return min_err > kGoodEnough &&
           (run->cancel == nullptr || !run->cancel->cancelled());
  };
  // Scores one decoded candidate; returns whether to keep drawing more.
  auto consider = [&](const std::vector<int>& out_ids) {
    std::string candidate = vocab_.Decode(out_ids);
    if (!candidate.empty()) {
      double pool_fraction = PoolWordFraction(candidate, word_pool_);
      // Fully degenerate decodes (random character runs) are dropped;
      // borderline ones pass through to the entity-level discriminator
      // rejection (paper Section V case 1).
      if (pool_fraction >= options_.min_pool_word_fraction) {
        double err = std::fabs(sim_(s, candidate) - target_sim);
        min_err = std::min(min_err, err);
        double score = err + 0.15 * (1.0 - pool_fraction);
        if (score < best_score) {
          best_score = score;
          best_err = err;
          best = std::move(candidate);
        }
      }
    }
    return keep_going();
  };
  GenerateStats gstats;
  if (options_.incremental_decode) {
    // Encode once per (model, source) and share across candidates and
    // rejection-loop retries; decode through the KV cache.
    EncoderMemoryPtr memory = t_encoder_cache.Lookup(model->uid(), s);
    if (memory == nullptr) {
      memory = model->EncodeMemory(src_ids);
      t_encoder_cache.Insert(model->uid(), s, memory);
      ++run->encoder_cache_misses;
      obs::Inc(obs::GetCounter(options_.metrics, "s2.encoder_cache_misses"));
    } else {
      ++run->encoder_cache_hits;
      obs::Inc(obs::GetCounter(options_.metrics, "s2.encoder_cache_hits"));
    }
    if (run->batched_decode) {
      // One draw from the shared stream seeds the per-candidate streams;
      // the caller's RNG advances by exactly one draw per synthesis call,
      // independent of how many candidates or tokens get decoded.
      const uint64_t stream_seed = rng->Next();
      model->GenerateBatchLanes(
          memory, options_.num_candidates, stream_seed, options_.temperature,
          [&](int, const std::vector<int>& out_ids) {
            return consider(out_ids);
          },
          /*lockstep=*/options_.batched_lockstep, &gstats);
    } else {
      model->GenerateBatch(
          memory, options_.num_candidates, rng, options_.temperature,
          [&](int, const std::vector<int>& out_ids) {
            return consider(out_ids);
          },
          /*use_kv_cache=*/true, &gstats);
    }
  } else {
    // Reference implementation: per-candidate encode + full re-decode,
    // exactly the pre-KV-cache behaviour.
    for (int c = 0; c < options_.num_candidates && keep_going(); ++c) {
      auto out_ids =
          model->Generate(src_ids, rng, options_.temperature, &gstats);
      consider(out_ids);
    }
  }
  run->decode_steps += gstats.steps;
  run->decode_cached_steps += gstats.cached_steps;
  run->decode_quantized_steps += gstats.quantized_steps;
  obs::Inc(obs::GetCounter(options_.metrics, "s2.decode_steps"),
           static_cast<uint64_t>(gstats.steps));
  obs::Inc(obs::GetCounter(options_.metrics, "s2.decode_cached_steps"),
           static_cast<uint64_t>(gstats.cached_steps));
  obs::Inc(obs::GetCounter(options_.metrics, "s2.decode_quantized_steps"),
           static_cast<uint64_t>(gstats.quantized_steps));
  if (best.empty()) {
    // No decoded candidate was kept: the decode's output is discarded for
    // the hill-climb fallback.
    obs::Inc(obs::GetCounter(options_.metrics, "s2.bank_empty_decode_calls"));
    return FallbackSynthesize(s, target_sim, rng);
  }
  if (best_err > options_.refine_threshold) {
    // The decoder missed the target: refine the candidate and also try a
    // pure perturbation-search synthesis, keeping whichever scores better.
    obs::Inc(obs::GetCounter(options_.metrics, "s2.bank_refined_calls"));
    std::string refined =
        HillClimbToSimilarity(s, best, target_sim, sim_, word_pool_, rng);
    std::string fallback = FallbackSynthesize(s, target_sim, rng);
    auto score_of = [&](const std::string& cand) {
      return std::fabs(sim_(s, cand) - target_sim) +
             0.15 * (1.0 - PoolWordFraction(cand, word_pool_));
    };
    best = score_of(refined) <= score_of(fallback) ? refined : fallback;
  }
  return best;
}

std::string StringSynthesisBank::FallbackSynthesize(const std::string& s,
                                                    double target_sim,
                                                    Rng* rng) const {
  // Seed the search from s for high targets and from an unrelated
  // background string for low targets, then climb toward the target.
  std::string start;
  if (target_sim >= 0.5 || corpus_.empty()) {
    start = s;
  } else {
    start = corpus_[rng->UniformInt(corpus_.size())];
  }
  return HillClimbToSimilarity(s, start, target_sim, sim_, word_pool_, rng);
}

std::string StringSynthesisBank::Synthesize(const std::string& s,
                                            double target_sim, Rng* rng,
                                            BankRun* run) const {
  SERD_CHECK(rng != nullptr);
  BankRun local;
  if (run == nullptr) {
    local.batched_decode = options_.batched_decode;
    run = &local;
  }
  obs::Inc(obs::GetCounter(options_.metrics, "s2.bank_synth_calls"));
  double target = std::clamp(target_sim, 0.0, 1.0);
  int bucket = trained_ ? BucketOf(target) : -1;
  int used = -1;
  if (trained_) {
    if (models_[bucket] != nullptr) {
      used = bucket;
    } else {
      // Nearest trained bucket, if any.
      for (int d = 1; d < options_.num_buckets && used < 0; ++d) {
        int lo = bucket - d, hi = bucket + d;
        if (lo >= 0 && models_[lo] != nullptr) {
          used = lo;
        } else if (hi < options_.num_buckets && models_[hi] != nullptr) {
          used = hi;
        }
      }
    }
  }
  if (used < 0) {
    ++run->fallback_calls;
    obs::Inc(obs::GetCounter(options_.metrics, "s2.bank_fallback_calls"));
    return FallbackSynthesize(s, target, rng);
  }
  if (run->bucket_hits.size() < static_cast<size_t>(options_.num_buckets)) {
    run->bucket_hits.resize(options_.num_buckets, 0);
  }
  ++run->bucket_hits[used];
  obs::Observe(
      obs::GetHistogram(options_.metrics, "s2.bank_bucket",
                        obs::LinearBounds(
                            0.0, static_cast<double>(options_.num_buckets - 1),
                            options_.num_buckets)),
      static_cast<double>(used));
  return SynthesizeWithModel(used, s, target, rng, run);
}

}  // namespace serd
