#include "seq2seq/model_bank.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "runtime/parallel_for.h"
#include "text/perturb.h"
#include "text/token.h"

namespace serd {

StringSynthesisBank::StringSynthesisBank(StringBankOptions options,
                                         StringSimFn sim)
    : options_(std::move(options)), sim_(std::move(sim)) {
  SERD_CHECK_GT(options_.num_buckets, 0);
  SERD_CHECK_GT(options_.num_candidates, 0);
  SERD_CHECK(sim_ != nullptr);
  // Registered up front, so a manifest shows every route's counter, at 0
  // when no call took it (e.g. no bucket decodes).
  for (const char* name :
       {"s2.bank_synth_calls", "s2.bank_fallback_calls",
        "s2.bank_refined_calls", "s2.bank_empty_decode_calls",
        "s2.decode_steps", "s2.encoder_cache_hits",
        "s2.encoder_cache_misses", "s2.climb_proposals"}) {
    obs::GetCounter(options_.metrics, name);
  }
  obs::GetTimer(options_.metrics, "s2.climb_seconds");
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
  keep_counts_.clear();
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
  BucketHistogram();  // in the manifest even when no bucket decodes
  return Status::OK();
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
  keep_counts_.clear();
  trained_ = true;
  BucketHistogram();  // in the manifest even when no bucket decodes
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
  // Fully degenerate decodes (random character runs) fail the keep test;
  // borderline ones pass through to the entity-level discriminator
  // rejection (paper Section V case 1).
  auto consider = [&](const std::vector<int>& out_ids) {
    std::string candidate = vocab_.Decode(out_ids);
    double pool_fraction = 0.0;
    if (KeepsCandidate(candidate, &pool_fraction)) {
      double err = std::fabs(sim_(s, candidate) - target_sim);
      min_err = std::min(min_err, err);
      double score = err + 0.15 * (1.0 - pool_fraction);
      if (score < best_score) {
        best_score = score;
        best_err = err;
        best = std::move(candidate);
      }
    }
    return keep_going();
  };
  EncoderMemoryPtr memory;
  if (options_.incremental_decode) {
    // Encode once per (model, source) and share across candidates and
    // rejection-loop retries.
    memory = t_encoder_cache.Lookup(model->uid(), s);
    if (memory == nullptr) {
      memory = model->EncodeMemory(src_ids);
      t_encoder_cache.Insert(model->uid(), s, memory);
      ++run->encoder_cache_misses;
      obs::Inc(obs::GetCounter(options_.metrics, "s2.encoder_cache_misses"));
    } else {
      ++run->encoder_cache_hits;
      obs::Inc(obs::GetCounter(options_.metrics, "s2.encoder_cache_hits"));
    }
  }
  GenerateStats gstats;
  DecodeCandidates(*model, src_ids, memory, rng, consider, &gstats);
  run->decode_steps += gstats.steps;
  obs::Inc(obs::GetCounter(options_.metrics, "s2.decode_steps"),
           static_cast<uint64_t>(gstats.steps));
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
    std::string refined = Climb(s, best, target_sim, rng);
    std::string fallback = FallbackSynthesize(s, target_sim, rng);
    auto score_of = [&](const std::string& cand) {
      return std::fabs(sim_(s, cand) - target_sim) +
             0.15 * (1.0 - PoolWordFraction(cand, word_pool_));
    };
    best = score_of(refined) <= score_of(fallback) ? refined : fallback;
  }
  return best;
}

obs::Histogram* StringSynthesisBank::BucketHistogram() const {
  // One histogram bucket per bank bucket over the indices [0, K - 1];
  // a one-bucket bank spans [0, 1], since the bounds need hi > lo.
  const int k = options_.num_buckets;
  return obs::GetHistogram(options_.metrics, "s2.bank_bucket",
                           obs::LinearBounds(0.0, std::max(1, k - 1), k));
}

bool StringSynthesisBank::KeepsCandidate(const std::string& candidate,
                                         double* pool_fraction) const {
  if (candidate.empty()) return false;
  *pool_fraction = PoolWordFraction(candidate, word_pool_);
  return *pool_fraction >= options_.min_pool_word_fraction;
}

void StringSynthesisBank::DecodeCandidates(
    const TransformerSeq2Seq& model, const std::vector<int>& src_ids,
    const EncoderMemoryPtr& memory, Rng* rng,
    const std::function<bool(const std::vector<int>&)>& consider,
    GenerateStats* stats) const {
  if (options_.incremental_decode) {
    // Candidates share the encoder memory and decode through the KV cache.
    model.GenerateBatch(
        memory, options_.num_candidates, rng, options_.temperature,
        [&](int, const std::vector<int>& out_ids) {
          return consider(out_ids);
        },
        stats);
    return;
  }
  // Reference implementation: per-candidate encode + full re-decode,
  // exactly the pre-KV-cache behaviour.
  for (int c = 0; c < options_.num_candidates; ++c) {
    if (!consider(model.Generate(src_ids, rng, options_.temperature, stats))) {
      break;
    }
  }
}

KeepCount StringSynthesisBank::MeasureKeepCount(
    int bucket, const std::vector<std::string>& sources,
    uint64_t seed) const {
  SERD_CHECK(bucket >= 0 && bucket < static_cast<int>(models_.size()) &&
             models_[bucket] != nullptr);
  const TransformerSeq2Seq& model = *models_[bucket];
  Rng rng(seed);
  KeepCount count;
  auto tally = [&](const std::vector<int>& out_ids) {
    double pool_fraction = 0.0;
    ++count.decoded;
    if (KeepsCandidate(vocab_.Decode(out_ids), &pool_fraction)) ++count.kept;
    return true;  // every candidate of every source is decoded
  };
  for (const std::string& source : sources) {
    // The memory is computed fresh, not taken from the per-thread encoder
    // cache, so measuring leaves no trace in any run's cache accounting.
    std::vector<int> src_ids = vocab_.Encode(source);
    EncoderMemoryPtr memory;
    if (options_.incremental_decode) memory = model.EncodeMemory(src_ids);
    DecodeCandidates(model, src_ids, memory, &rng, tally, nullptr);
  }
  return count;
}

void StringSynthesisBank::MeasureKeepCounts(
    const std::vector<std::string>& sources, uint64_t seed,
    runtime::ThreadPool* pool) {
  std::vector<KeepCount> counts(models_.size());
  runtime::ParallelFor(pool, 0, models_.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      if (models_[b] == nullptr) continue;
      counts[b] = MeasureKeepCount(static_cast<int>(b), sources,
                                   seed + 31ULL * static_cast<uint64_t>(b));
    }
  });
  keep_counts_ = std::move(counts);
}

Status StringSynthesisBank::SetKeepCounts(std::vector<KeepCount> counts) {
  if (!counts.empty() && counts.size() != models_.size()) {
    return Status::InvalidArgument(
        "keep counts cover " + std::to_string(counts.size()) +
        " buckets, bank has " + std::to_string(models_.size()));
  }
  for (size_t b = 0; b < counts.size(); ++b) {
    const KeepCount& c = counts[b];
    if (c.decoded < 0 || c.kept < 0 || c.kept > c.decoded) {
      return Status::InvalidArgument(
          "bucket " + std::to_string(b) + " keep count " +
          std::to_string(c.kept) + "/" + std::to_string(c.decoded) +
          " is not 0 <= kept <= decoded");
    }
    if (c.decoded > 0 && models_[b] == nullptr) {
      return Status::InvalidArgument("keep count for untrained bucket " +
                                     std::to_string(b));
    }
  }
  keep_counts_ = std::move(counts);
  return Status::OK();
}

bool StringSynthesisBank::BucketDecodes(int bucket) const {
  if (models_[bucket] == nullptr) return false;
  if (keep_counts_.empty() || keep_counts_[bucket].decoded == 0) return true;
  const KeepCount& c = keep_counts_[bucket];
  const double candidate_keep =
      static_cast<double>(c.kept) / static_cast<double>(c.decoded);
  const double call_keep =
      1.0 - std::pow(1.0 - candidate_keep, options_.num_candidates);
  return call_keep >= kMinCallKeepChance;
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
  return Climb(s, start, target_sim, rng);
}

std::string StringSynthesisBank::Climb(const std::string& s,
                                       const std::string& start,
                                       double target_sim, Rng* rng) const {
  // With observability off, skip the metric lookups: each builds a name
  // string, an allocation per climb.
  if (options_.metrics == nullptr) {
    return HillClimbToSimilarity(s, start, target_sim, sim_, word_pool_, rng);
  }
  WallTimer climb_timer;
  long proposals = 0;
  std::string out = HillClimbToSimilarity(s, start, target_sim, sim_,
                                          word_pool_, rng, {}, &proposals);
  options_.metrics->timer("s2.climb_seconds")->Record(climb_timer.Seconds());
  options_.metrics->counter("s2.climb_proposals")
      ->Add(static_cast<uint64_t>(proposals));
  return out;
}

std::string StringSynthesisBank::Synthesize(const std::string& s,
                                            double target_sim, Rng* rng,
                                            BankRun* run) const {
  SERD_CHECK(rng != nullptr);
  BankRun local;
  if (run == nullptr) run = &local;
  obs::Inc(obs::GetCounter(options_.metrics, "s2.bank_synth_calls"));
  double target = std::clamp(target_sim, 0.0, 1.0);
  int bucket = trained_ ? BucketOf(target) : -1;
  int used = -1;
  if (trained_) {
    if (BucketDecodes(bucket)) {
      used = bucket;
    } else {
      // Nearest decoding bucket, if any.
      for (int d = 1; d < options_.num_buckets && used < 0; ++d) {
        int lo = bucket - d, hi = bucket + d;
        if (lo >= 0 && BucketDecodes(lo)) {
          used = lo;
        } else if (hi < options_.num_buckets && BucketDecodes(hi)) {
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
  if (obs::Histogram* h = BucketHistogram()) {
    h->Record(static_cast<double>(used));
  }
  return SynthesizeWithModel(used, s, target, rng, run);
}

}  // namespace serd
