#include "core/serd.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/o_syn_tracker.h"
#include "obs/manifest.h"
#include "obs/trace.h"
#include "text/qgram.h"

namespace serd {

const char* BlockingModeName(SerdOptions::BlockingMode mode) {
  switch (mode) {
    case SerdOptions::BlockingMode::kOff:
      return "off";
    case SerdOptions::BlockingMode::kQgram:
      return "qgram";
    case SerdOptions::BlockingMode::kAuto:
      return "auto";
  }
  return "off";
}

bool ParseBlockingMode(const std::string& name,
                       SerdOptions::BlockingMode* mode) {
  if (name == "off") {
    *mode = SerdOptions::BlockingMode::kOff;
  } else if (name == "qgram") {
    *mode = SerdOptions::BlockingMode::kQgram;
  } else if (name == "auto") {
    *mode = SerdOptions::BlockingMode::kAuto;
  } else {
    return false;
  }
  return true;
}

Status ValidateSerdOptions(const SerdOptions& options) {
  auto positive_finite = [](const char* name, double v) {
    if (std::isfinite(v) && v > 0.0) return Status::OK();
    return Status::InvalidArgument(std::string(name) +
                                   " must be positive and finite, got " +
                                   std::to_string(v));
  };
  auto at_least = [](const char* name, int v, int lo) {
    if (v >= lo) return Status::OK();
    return Status::InvalidArgument(std::string(name) + " must be >= " +
                                   std::to_string(lo) + ", got " +
                                   std::to_string(v));
  };
  // Every string bank, trained or loaded, decodes with these.
  const StringBankOptions& bank = options.string_bank;
  SERD_RETURN_IF_ERROR(
      at_least("string_bank.num_candidates", bank.num_candidates, 1));
  SERD_RETURN_IF_ERROR(
      at_least("string_bank.num_buckets", bank.num_buckets, 1));
  SERD_RETURN_IF_ERROR(
      positive_finite("string_bank.temperature", bank.temperature));
  // Training reads these; DP-SGD's accumulator checks the clip bound and
  // noise multiplier even with DP disabled.
  const Seq2SeqTrainOptions& train = bank.train;
  SERD_RETURN_IF_ERROR(at_least("string_bank.train.epochs", train.epochs, 0));
  SERD_RETURN_IF_ERROR(
      at_least("string_bank.train.batch_size", train.batch_size, 1));
  SERD_RETURN_IF_ERROR(positive_finite("string_bank.train.learning_rate",
                                       train.learning_rate));
  SERD_RETURN_IF_ERROR(
      positive_finite("string_bank.train.dp.clip_norm", train.dp.clip_norm));
  if (!(std::isfinite(train.dp.noise_multiplier) &&
        train.dp.noise_multiplier >= 0.0)) {
    return Status::InvalidArgument(
        "string_bank.train.dp.noise_multiplier must be finite and >= 0, "
        "got " +
        std::to_string(train.dp.noise_multiplier));
  }
  return Status::OK();
}

SerdSynthesizer::SerdSynthesizer(const ERDataset& real, SerdOptions options)
    : real_(&real), options_(std::move(options)) {
  spec_ = SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b});
  cached_sim_ = std::make_unique<CachedSimilarity>(spec_);
  resolved_threads_ = runtime::ResolveThreads(options_.threads);
  if (resolved_threads_ > 1) {
    // Workers = threads - 1: the calling thread drains chunks too, so the
    // total executor count matches the requested thread count.
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<int>(resolved_threads_ - 1));
  }
  options_.gmm.pool = pool_.get();
  if (options_.observability) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  // Thread the shared registry (or null) into every stage's options.
  options_.gmm.metrics = metrics_.get();
  options_.string_bank.metrics = metrics_.get();
  options_.string_bank.train.metrics = metrics_.get();
  options_.gan.metrics = metrics_.get();

  // Precompute the categorical similarity tables (CatSimTable). Domains
  // are small (distinct values of one column), so the O(|domain|^2) build
  // is paid once here instead of two O(|domain|) q-gram scans per
  // synthesized categorical cell. Each value is hashed once; on a
  // categorical column ColumnSimilarity is the Jaccard of these sets (an
  // empty value has the empty set, which gives its 1 and 0 cases).
  const Schema& schema = spec_.schema();
  cat_sim_.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kCategorical) continue;
    const auto& domain = spec_.stats()[c].domain;
    CatSimTable& table = cat_sim_[c];
    table.grams.resize(domain.size());
    for (size_t i = 0; i < domain.size(); ++i) {
      table.index.emplace(domain[i], i);
      table.grams[i] = HashedQgramSet(domain[i], 3);
    }
    table.rows.resize(domain.size());
    for (size_t i = 0; i < domain.size(); ++i) {
      table.rows[i].resize(domain.size());
      for (size_t j = 0; j < domain.size(); ++j) {
        table.rows[i][j] = JaccardOfHashedSets(table.grams[i], table.grams[j]);
      }
    }
  }
}

Status SerdSynthesizer::Fit(
    const std::vector<std::vector<std::string>>& background_text_corpora,
    const Table& background_entities) {
  WallTimer timer;

  // A bad option is rejected here, before any artifact load or training.
  SERD_RETURN_IF_ERROR(ValidateSerdOptions(options_));

  // Warm start: a validated artifact replaces the entire offline phase —
  // S1 GMM fitting, DP transformer training, GAN training. kAuto degrades
  // to cold training when no usable artifact exists; kLoad treats that as
  // fatal (callers relying on "no further DP budget is spent").
  if (!options_.model_dir.empty() &&
      options_.artifact_mode != SerdOptions::ArtifactMode::kSave) {
    Status loaded = LoadModels(options_.model_dir);
    if (loaded.ok()) return Status::OK();
    if (options_.artifact_mode == SerdOptions::ArtifactMode::kLoad) {
      return loaded;
    }
    SERD_LOG(kWarning) << "model artifact unavailable ("
                       << loaded.ToString() << "); training from scratch";
  }

  // ----- S1: learn the M- and N-distributions from E_real. -----
  obs::TraceSpan s1_span(metrics_.get(), "s1.distributions");
  auto o_fit = FitODistribution(*real_, spec_, options_.gmm, options_.seed);
  SERD_RETURN_IF_ERROR(o_fit.status());
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    o_real_ = std::move(o_fit).value();
    report_.m_components =
        static_cast<int>(o_real_.m_distribution().num_components());
    report_.n_components =
        static_cast<int>(o_real_.n_distribution().num_components());
  }
  s1_span.Stop();
  if (metrics_ != nullptr) {
    metrics_->gauge("s1.m_components")->Set(report_.m_components);
    metrics_->gauge("s1.n_components")->Set(report_.n_components);
    metrics_->gauge("s1.pi")->Set(o_real_.pi());
  }

  SERD_RETURN_IF_ERROR(TrainStringBanks(background_text_corpora));
  SERD_RETURN_IF_ERROR(TrainGan(background_entities));

  // ----- Offline: each trained bucket's keep rate gates its decode. -----
  obs::TraceSpan keep_span(metrics_.get(), "offline.keep_measurement");
  MeasureBankKeepCounts();
  keep_span.Stop();

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    report_.offline_seconds = timer.Seconds();
    source_offline_seconds_ = report_.offline_seconds;
    report_.warm_started = false;
    report_ = OfflineReportLocked();
    fitted_ = true;
  }

  if (!options_.model_dir.empty()) {
    SERD_RETURN_IF_ERROR(SaveModels(options_.model_dir));
  }
  return Status::OK();
}

Status SerdSynthesizer::TrainStringBanks(
    const std::vector<std::vector<std::string>>& background_text_corpora) {
  const Schema& schema = spec_.schema();
  size_t text_columns = 0;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == ColumnType::kText) ++text_columns;
  }
  if (background_text_corpora.size() != text_columns) {
    return Status::InvalidArgument(
        "need one background corpus per text column");
  }

  obs::TraceSpan banks_span(metrics_.get(), "offline.string_banks");
  banks_.clear();
  banks_.resize(schema.num_columns());
  size_t corpus_idx = 0;
  double total_eps = 0.0;
  int eps_count = 0;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kText) continue;
    StringBankOptions bank_opts = options_.string_bank;
    bank_opts.train.seed = options_.seed + 7919ULL * (c + 1);
    bank_opts.train.pool = pool_.get();
    // ColumnSimilarity on a text column is QgramJaccard(a, b, 3) exactly;
    // the named callable lets the bank's hill climb profile its reference
    // once per climb.
    auto bank =
        std::make_unique<StringSynthesisBank>(bank_opts, QgramJaccardSim{});
    Rng bank_rng(options_.seed + 104729ULL * (c + 1));
    SERD_RETURN_IF_ERROR(
        bank->Train(background_text_corpora[corpus_idx], &bank_rng));
    if (bank->stats().mean_epsilon > 0.0) {
      total_eps += bank->stats().mean_epsilon;
      ++eps_count;
    }
    banks_[c] = std::move(bank);
    ++corpus_idx;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  report_.mean_bank_epsilon = eps_count > 0 ? total_eps / eps_count : 0.0;
  return Status::OK();
}

Status SerdSynthesizer::TrainGan(const Table& background_entities) {
  const Schema& schema = spec_.schema();
  if (!(background_entities.schema() == schema)) {
    return Status::InvalidArgument(
        "background entities must share the dataset schema");
  }
  if (background_entities.empty()) {
    return Status::InvalidArgument("background entities table is empty");
  }
  encoder_ = std::make_unique<EntityEncoder>(spec_);
  std::vector<std::vector<float>> features;
  features.reserve(background_entities.size());
  for (const auto& row : background_entities.rows()) {
    features.push_back(encoder_->Encode(row));
  }
  gan_ = std::make_unique<EntityGan>(encoder_->feature_dim(), options_.gan);
  gan_->Train(features);

  decode_pools_.assign(schema.num_columns(), {});
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    decode_pools_[c] = background_entities.ColumnValues(c);
    if (decode_pools_[c].empty()) decode_pools_[c].push_back("");
  }
  return Status::OK();
}

namespace {

/// Candidates each trained bucket decodes for its keep measurement (at
/// least; whole calls of num_candidates are decoded).
constexpr int kKeepSampleCandidates = 64;

/// Salt separating the keep measurement's decode streams from the
/// training seeds they derive from.
constexpr uint64_t kKeepSeedSalt = 0x6b656570636e74ULL;

}  // namespace

void SerdSynthesizer::MeasureBankKeepCounts() {
  // The sources are background entity values of the column, which no
  // bucket trained on (training draws from the background corpus); corpus
  // strings (Train() requires at least two) fill in when there are too
  // few distinct ones.
  const int candidates = options_.string_bank.num_candidates;
  const size_t num_sources = static_cast<size_t>(
      (kKeepSampleCandidates + candidates - 1) / candidates);
  for (size_t c = 0; c < banks_.size(); ++c) {
    if (banks_[c] == nullptr) continue;
    StringSynthesisBank& bank = *banks_[c];
    const std::unordered_set<std::string> corpus(bank.corpus().begin(),
                                                 bank.corpus().end());
    std::unordered_set<std::string> seen;
    std::vector<std::string> sources;
    auto take = [&](const std::string& v) {
      if (sources.size() < num_sources && seen.insert(v).second) {
        sources.push_back(v);
      }
    };
    for (const auto& v : decode_pools_[c]) {
      if (corpus.count(v) == 0) take(v);
    }
    for (const auto& v : bank.corpus()) take(v);
    // A column with few distinct values repeats them; every decode samples
    // afresh, so the measurement still covers kKeepSampleCandidates.
    for (size_t i = 0; sources.size() < num_sources; ++i) {
      std::string repeat = sources[i];
      sources.push_back(std::move(repeat));
    }
    bank.MeasureKeepCounts(
        sources, (options_.seed + 7919ULL * (c + 1)) ^ kKeepSeedSalt,
        pool_.get());
  }
}

Entity SerdSynthesizer::SynthesizeFrom(const Entity& e, const Vec& x,
                                       Rng* rng, BankRun* bank_run) const {
  const Schema& schema = spec_.schema();
  Entity out;
  out.values.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const double target = std::clamp(x[c], 0.0, 1.0);
    switch (schema.column(c).type) {
      case ColumnType::kNumeric:
      case ColumnType::kDate: {
        // Closed form (paper: e'[C] = e[C] +- (1 - x[C]) * range).
        double base;
        double lo = spec_.stats()[c].min_value;
        double hi = spec_.stats()[c].max_value;
        double range = spec_.Range(c);
        if (!spec_.ParseValue(c, e.values[c], &base)) {
          base = rng->Uniform(lo, hi);
        }
        double delta = (1.0 - target) * range;
        double candidate =
            rng->Bernoulli(0.5) ? base + delta : base - delta;
        if (candidate < lo || candidate > hi) {
          candidate = rng->Bernoulli(0.5) ? base + delta : base - delta;
          candidate = std::clamp(candidate, lo, hi);
        }
        out.values[c] = spec_.FormatValue(c, candidate);
        break;
      }
      case ColumnType::kCategorical: {
        // Closest existing value to the target similarity; ties within a
        // small margin are broken uniformly for variety. Similarities to
        // the domain come from the precomputed CatSimTable row of the
        // source value (same ColumnSimilarity semantics by construction).
        const auto& domain = spec_.stats()[c].domain;
        if (domain.empty()) {
          out.values[c] = e.values[c];
          break;
        }
        const CatSimTable& table = cat_sim_[c];
        const std::vector<double>* row;
        std::vector<double> fallback;
        auto it = table.index.find(e.values[c]);
        if (it != table.index.end()) {
          row = &table.rows[it->second];
        } else {
          // Source value outside the domain (cold-start decode from the
          // background pool): compute its row once.
          const std::vector<uint32_t> grams = HashedQgramSet(e.values[c], 3);
          fallback.resize(domain.size());
          for (size_t i = 0; i < domain.size(); ++i) {
            fallback[i] = JaccardOfHashedSets(grams, table.grams[i]);
          }
          row = &fallback;
        }
        double best_err = 2.0;
        for (size_t i = 0; i < domain.size(); ++i) {
          best_err = std::min(best_err, std::fabs((*row)[i] - target));
        }
        std::vector<const std::string*> near;
        for (size_t i = 0; i < domain.size(); ++i) {
          if (std::fabs((*row)[i] - target) <= best_err + 0.02) {
            near.push_back(&domain[i]);
          }
        }
        out.values[c] = *near[rng->UniformInt(near.size())];
        break;
      }
      case ColumnType::kText: {
        SERD_CHECK(banks_[c] != nullptr);
        out.values[c] =
            banks_[c]->Synthesize(e.values[c], target, rng, bank_run);
        break;
      }
    }
  }
  return out;
}

SerdReport SerdSynthesizer::OfflineReportLocked() const {
  SerdReport report;
  report.offline_seconds = report_.offline_seconds;
  report.mean_bank_epsilon = report_.mean_bank_epsilon;
  report.m_components = report_.m_components;
  report.n_components = report_.n_components;
  report.warm_started = report_.warm_started;
  report.threads_used = static_cast<int>(resolved_threads_);
  return report;
}

RunOptions SerdSynthesizer::DefaultRunOptions() const {
  RunOptions run;
  run.enable_rejection = options_.enable_rejection;
  run.blocking = options_.blocking;
  std::lock_guard<std::mutex> lock(state_mu_);
  run.seed = options_.seed;
  return run;
}

Result<ERDataset> SerdSynthesizer::Synthesize(const CancelToken* cancel) {
  RunOptions run = DefaultRunOptions();
  run.cancel = cancel;
  SerdReport report;
  Result<ERDataset> syn = Synthesize(run, &report);
  if (syn.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    report_ = report;
  }
  return syn;
}

namespace {

/// Entities S2 accepts before the warm-up fit of O_syn; from then on every
/// attempt faces the Eq. 10 test.
constexpr size_t kOSynWarmup = 12;

}  // namespace

/// One Synthesize(const RunOptions&, SerdReport*) call. Every piece of run
/// state lives here, so concurrent runs never interact and a cancelled run
/// leaves nothing behind. The methods are the steps of paper Sections
/// III-V (DESIGN.md §5e).
class SerdSynthesizer::Run {
 public:
  Run(const SerdSynthesizer& synth, const RunOptions& run, SerdReport report)
      : s_(synth),
        run_(run),
        pool_before_(s_.pool_ != nullptr ? s_.pool_->stats()
                                         : runtime::ThreadPool::Stats()),
        report_(std::move(report)),
        rng_(run.seed ^ 0x51e2d5ULL),
        na_(opt().target_a > 0 ? opt().target_a : s_.real_->a.size()),
        nb_(opt().target_b > 0 ? opt().target_b : s_.real_->b.size()),
        // O_real's arms with π = |M_real| / (n_a + n_b) (DESIGN.md §5b).
        link_(std::clamp(static_cast<double>(s_.real_->matches.size()) /
                             static_cast<double>(na_ + nb_),
                         0.02, 0.9),
              s_.o_real_.m_distribution(), s_.o_real_.n_distribution()),
        t_cap_(static_cast<size_t>(
            std::max(1, opt().rejection_partner_sample))),
        max_iterations_(opt().max_loop_iterations > 0
                            ? opt().max_loop_iterations
                            : 60 * (na_ + nb_) + 1000),
        o_syn_(s_.o_real_, opt().jsd_samples, run.seed ^ 0x15d0ULL,
               s_.pool_.get(), metrics(),
               {&report_.jsd_evaluations, LiveCounter("s2.jsd_evaluations")}),
        labeler_(s_.o_real_, *s_.cached_sim_) {
    SERD_CHECK(na_ > 0 && nb_ > 0);
    // The token also reaches the string banks' decode early-stop
    // callbacks, so a trip interrupts a decode already in flight.
    bank_run_.cancel = run.cancel;
    syn_.name = s_.real_->name + "-SERD" + (run.enable_rejection ? "" : "-");
    syn_.a = Table(s_.spec_.schema());
    syn_.b = Table(s_.spec_.schema());
    a_digests_.reserve(na_);
    b_digests_.reserve(nb_);
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// OK until the run's cancel token trips, then the token's cause.
  Status CancelPoll() const {
    const CancelToken* cancel = run_.cancel;
    if (cancel == nullptr || !cancel->cancelled()) return Status::OK();
    Status cause = cancel->cause();
    return cause.ok() ? Status::Cancelled("synthesis cancelled") : cause;
  }

  /// S2: one cold-start A-entity (paper Section IV-B2: GAN features
  /// decoded against the background pools), then one accepted entity per
  /// guard-loop iteration until both tables reach their targets or the
  /// guard trips. Fails only when cancelled.
  Status SynthesizeEntities() {
    SERD_CHECK(s_.gan_ != nullptr && s_.encoder_ != nullptr);
    Entity seed = s_.encoder_->Decode(s_.gan_->GenerateFeatures(&rng_),
                                      s_.decode_pools_);
    CachedSimilarity::Digest seed_digest = s_.cached_sim_->MakeDigest(seed);
    Append(true, std::move(seed), std::move(seed_digest));
    accepted_.Add();

    obs::TraceSpan s2_span(metrics(), "s2.loop");
    size_t guard = 0;
    while ((syn_.a.size() < na_ || syn_.b.size() < nb_) &&
           guard++ < max_iterations_) {
      // One relaxed atomic load per accepted entity, so a tripped token
      // stops the run within one loop iteration.
      SERD_RETURN_IF_ERROR(CancelPoll());
      const auto [e_from_a, e_idx] = ChooseSource();
      SERD_RETURN_IF_ERROR(AddLinkedEntity(e_from_a, e_idx));
      WarmUpFit();
    }
    s2_span.Stop();

    if (syn_.a.size() < na_ || syn_.b.size() < nb_) {
      // The guard tripped before the targets were reached: report the
      // shortfall loudly instead of silently handing back less.
      report_.guard_exhausted = true;
      report_.shortfall_a = na_ - syn_.a.size();
      report_.shortfall_b = nb_ - syn_.b.size();
      obs::Inc(guard_exhausted_);
      SERD_LOG(kWarning) << syn_.name << ": S2 guard exhausted after "
                         << max_iterations_ << " iterations; returning "
                         << syn_.a.size() << "/" << na_ << " A and "
                         << syn_.b.size() << "/" << nb_ << " B entities";
    }
    return Status::OK();
  }

  /// S3 (paper Section IV-C): S2's links keep their labels, and every
  /// other cross pair is labeled by O_real's posterior.
  void LabelPairs() {
    std::unordered_set<uint64_t> known;
    for (const PairRef& link : links_) {
      known.insert(static_cast<uint64_t>(link.a_idx) * syn_.b.size() +
                   link.b_idx);
    }
    CrossPairLabels s3 = LabelCrossPairs(
        s_.o_real_, *s_.cached_sim_, a_digests_, b_digests_, known,
        run_.blocking, opt().max_label_pairs, run_.seed, s_.pool_.get(),
        metrics());
    syn_.matches.insert(syn_.matches.end(), s3.matches.begin(),
                        s3.matches.end());
    report_.s3_blocked = s3.blocked;
    report_.s3_total_pairs = static_cast<long>(s3.total_pairs);
    report_.s3_candidate_pairs = static_cast<long>(s3.candidate_pairs);
    report_.s3_pruned_pairs =
        static_cast<long>(s3.total_pairs - s3.candidate_pairs);
    report_.s3_scanned_pairs = static_cast<long>(s3.scanned_pairs);
    report_.s3_scored_pairs = static_cast<long>(s3.scored_pairs);
    report_.s3_posterior_matches = static_cast<long>(s3.matches.size());
    report_.s3_block_recall = s3.block_recall;
    report_.s3_block_recall_estimated = s3.block_recall_estimated;
  }

  /// The report step; copies the report to `report_out` when it is not
  /// null and returns the dataset.
  ERDataset Finish(SerdReport* report_out) {
    // The committed O_syn's JSD, as its commit (or the warm-up fit)
    // estimated it.
    if (o_syn_.tracking()) report_.jsd_real_vs_syn = o_syn_.jsd();
    if (s_.pool_ != nullptr) {
      runtime::ThreadPool::Stats delta = s_.pool_->stats();
      delta.busy_seconds -= pool_before_.busy_seconds;
      delta.wall_seconds -= pool_before_.wall_seconds;
      report_.parallel_speedup = delta.Speedup();
    }
    report_.forced_accepts = report_.forced_accepts_discriminator +
                             report_.forced_accepts_distribution;
    report_.decode_steps = bank_run_.decode_steps;
    report_.encoder_cache_hits = bank_run_.encoder_cache_hits;
    report_.encoder_cache_misses = bank_run_.encoder_cache_misses;
    report_.online_seconds = timer_.Seconds();
    if (metrics() != nullptr) {
      metrics()->gauge("run.online_seconds")->Set(report_.online_seconds);
      metrics()->gauge("run.parallel_speedup")->Set(report_.parallel_speedup);
    }
    if (report_out != nullptr) *report_out = report_;
    return std::move(syn_);
  }

 private:
  using Digests = std::vector<CachedSimilarity::Digest>;
  /// An attempt's e', whether its x came from the M arm (the label of its
  /// link to e), and its digest once the partner step has built it.
  struct Candidate {
    Entity entity;
    bool from_match;
    CachedSimilarity::Digest digest;
  };

  const SerdOptions& opt() const { return s_.options_; }
  obs::MetricsRegistry* metrics() const { return s_.metrics_.get(); }
  obs::Counter* LiveCounter(std::string_view name) const {
    return obs::GetCounter(metrics(), name);
  }

  /// `digest` is MakeDigest(e), which does not read the id.
  size_t Append(bool to_a, Entity e, CachedSimilarity::Digest digest) {
    Table& t = to_a ? syn_.a : syn_.b;
    e.id = (to_a ? "sa" : "sb") + std::to_string(t.size());
    (to_a ? a_digests_ : b_digests_).push_back(std::move(digest));
    t.Append(std::move(e));
    return t.size() - 1;
  }

  /// S2-1: the source entity e, as (from A, row). e' joins the other
  /// table, so a full table is the source; otherwise A or B is picked in
  /// proportion to their sizes. A holds the cold-start entity and a full
  /// B is non-empty, so the source never is.
  std::pair<bool, size_t> ChooseSource() {
    bool e_from_a;
    if (syn_.a.size() >= na_) {
      e_from_a = true;
    } else if (syn_.b.size() >= nb_) {
      e_from_a = false;
    } else {
      e_from_a =
          rng_.UniformInt(syn_.a.size() + syn_.b.size()) < syn_.a.size();
    }
    return {e_from_a, rng_.UniformInt((e_from_a ? syn_.a : syn_.b).size())};
  }

  /// S2-2 to S2-4 for one source entity. Every call accepts exactly one
  /// entity: the last attempt's candidate is kept even when a rejection
  /// test fails (a "forced accept", counted by cause), and it runs through
  /// the same partner, O_syn and commit steps as any other, so O_syn
  /// tracks every pair the dataset contains (DESIGN.md §5e).
  Status AddLinkedEntity(bool e_from_a, size_t e_idx) {
    const Entity& e = (e_from_a ? syn_.a : syn_.b).row(e_idx);
    for (int attempt = 0;; ++attempt) {
      // Retries can dominate an iteration's wall time, so a deadline that
      // trips mid-iteration is honored between attempts too.
      SERD_RETURN_IF_ERROR(CancelPoll());
      const bool last_attempt = attempt >= opt().max_reject_retries;
      Candidate c = SynthesizeCandidate(e);
      bool forced_disc = false;
      if (run_.enable_rejection && RejectedByDiscriminator(c.entity)) {
        rejected_disc_.Add();
        if (!last_attempt) continue;
        forced_disc = true;
      }
      PartnerDeltas(e_from_a ? a_digests_ : b_digests_, &c);
      bool forced_dist = false;
      if (run_.enable_rejection && o_syn_.tracking()) {
        OSynTracker::Preview preview = o_syn_.PreviewWith(
            delta_pos_.data(), num_pos_, delta_neg_.data(), num_neg_);
        if (RejectedByDistribution(preview) && !forced_disc) {
          if (!last_attempt) {
            rejected_dist_.Add();
            continue;
          }
          forced_dist = true;
        }
        o_syn_.Commit(std::move(preview));
      } else if (run_.enable_rejection) {
        o_syn_.AddWarmUp(delta_pos_.data(), num_pos_, delta_neg_.data(),
                         num_neg_);
      }
      tracked_pos_.Add(num_pos_);
      tracked_neg_.Add(num_neg_);
      if (forced_disc) {
        forced_disc_.Add();
      } else if (forced_dist) {
        forced_dist_.Add();
      }
      obs::Observe(attempts_, static_cast<double>(attempt + 1));
      Commit(e_from_a, e_idx, std::move(c));
      return Status::OK();
    }
  }

  /// S2-2: x drawn from the link distribution, e' synthesized from e
  /// toward it.
  Candidate SynthesizeCandidate(const Entity& e) {
    ODistribution::SampleResult x = link_.Sample(&rng_);
    return {s_.SynthesizeFrom(e, x.x, &rng_, &bank_run_), x.from_match, {}};
  }

  /// S2-3, case 1: a discriminator score below beta rejects e'.
  bool RejectedByDiscriminator(const Entity& candidate) {
    obs::TraceSpan span(discriminator_seconds_);
    if (s_.gan_ == nullptr || !s_.gan_->trained()) return false;
    return s_.gan_->DiscriminatorScore(s_.encoder_->Encode(candidate)) <
           opt().beta;
  }

  /// The pairs e' induces with up to t partners in e's table (paper
  /// Remark (1)), labeled by O_real's posterior into delta_pos_ and
  /// delta_neg_ in partner order, the order ComputeDelta sums in.
  void PartnerDeltas(const Digests& source_digests, Candidate* c) {
    obs::TraceSpan span(partner_seconds_);
    c->digest = s_.cached_sim_->MakeDigest(c->entity);
    const size_t partners = source_digests.size();
    labeler_.Clear();
    if (partners <= t_cap_) {
      for (const auto& partner : source_digests) {
        labeler_.Add(partner, c->digest);
      }
    } else {
      // Floyd's algorithm: t_cap *distinct* partner indices in t_cap
      // draws (one UniformInt per selection, like the old
      // with-replacement loop, which could feed duplicate pairs into the
      // Eq. 9 delta and double-count them).
      chosen_.clear();
      for (size_t j = partners - t_cap_; j < partners; ++j) {
        size_t pick = rng_.UniformInt(j + 1);
        if (std::find(chosen_.begin(), chosen_.end(), pick) != chosen_.end()) {
          pick = j;
        }
        chosen_.push_back(pick);
        labeler_.Add(source_digests[pick], c->digest);
      }
    }
    labeler_.Label();
    // The vectors are swapped out of the labeler, so once the pools have
    // grown an attempt allocates no similarity vector.
    if (delta_pos_.size() < labeler_.size()) delta_pos_.resize(labeler_.size());
    if (delta_neg_.size() < labeler_.size()) delta_neg_.resize(labeler_.size());
    num_pos_ = num_neg_ = 0;
    for (size_t t = 0; t < labeler_.size(); ++t) {
      (labeler_.match(t) ? delta_pos_[num_pos_++] : delta_neg_[num_neg_++])
          .swap(labeler_.vector(t));
    }
  }

  /// S2-3, case 2 (paper Eq. 10): e' is rejected when its pairs would take
  /// O_syn's JSD to O_real above alpha times the committed one.
  bool RejectedByDistribution(const OSynTracker::Preview& preview) const {
    return preview.jsd > opt().alpha * o_syn_.jsd();
  }

  /// S2-4: e' joins the table opposite e, linked to e; the link is a
  /// match when x came from the M arm.
  void Commit(bool e_from_a, size_t e_idx, Candidate c) {
    const size_t new_idx =
        Append(!e_from_a, std::move(c.entity), std::move(c.digest));
    accepted_.Add();
    links_.push_back(e_from_a ? PairRef{e_idx, new_idx}
                              : PairRef{new_idx, e_idx});
    if (c.from_match) syn_.matches.push_back(links_.back());
  }

  /// O_syn's warm-up fit, tried after each accepted entity from the
  /// kOSynWarmup-th on until it succeeds; without rejection, never.
  void WarmUpFit() {
    if (run_.enable_rejection && !o_syn_.tracking() &&
        static_cast<size_t>(report_.accepted_entities) >= kOSynWarmup) {
      o_syn_.FitWarmUp(opt().gmm, report_.m_components, report_.n_components);
    }
  }

  const SerdSynthesizer& s_;
  const RunOptions& run_;
  WallTimer timer_;
  const runtime::ThreadPool::Stats pool_before_;
  SerdReport report_;
  Rng rng_;
  BankRun bank_run_;
  const size_t na_, nb_;
  const ODistribution link_;
  const size_t t_cap_;  ///< t of paper Remark (1)
  const size_t max_iterations_;
  ERDataset syn_;
  Digests a_digests_, b_digests_;
  std::vector<PairRef> links_;  ///< S2's links, labeled by their arm
  S2Event<int> accepted_{&report_.accepted_entities,
                         LiveCounter("s2.accepted")};
  S2Event<int> rejected_disc_{&report_.rejected_by_discriminator,
                              LiveCounter("s2.rejected_discriminator")};
  S2Event<int> rejected_dist_{&report_.rejected_by_distribution,
                              LiveCounter("s2.rejected_distribution")};
  S2Event<int> forced_disc_{&report_.forced_accepts_discriminator,
                            LiveCounter("s2.forced_accepts_discriminator")};
  S2Event<int> forced_dist_{&report_.forced_accepts_distribution,
                            LiveCounter("s2.forced_accepts_distribution")};
  S2Event<long> tracked_pos_{&report_.tracked_pairs_pos,
                             LiveCounter("s2.tracked_pairs_pos")};
  S2Event<long> tracked_neg_{&report_.tracked_pairs_neg,
                             LiveCounter("s2.tracked_pairs_neg")};
  obs::Counter* guard_exhausted_ = LiveCounter("s2.guard_exhausted");
  obs::Histogram* attempts_ = obs::GetHistogram(
      metrics(), "s2.attempts_per_entity", obs::LinearBounds(1.0, 8.0, 8));
  obs::Histogram* discriminator_seconds_ =
      obs::GetTimer(metrics(), "s2.discriminator_seconds");
  obs::Histogram* partner_seconds_ =
      obs::GetTimer(metrics(), "s2.partner_seconds");
  OSynTracker o_syn_;
  PairLabeler labeler_;
  std::vector<Vec> delta_pos_, delta_neg_;  // by label, in partner order
  size_t num_pos_ = 0, num_neg_ = 0;
  std::vector<size_t> chosen_;  // Floyd's picks, at most t_cap_
};

Result<ERDataset> SerdSynthesizer::Synthesize(const RunOptions& run,
                                              SerdReport* report_out) const {
  SerdReport report;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!fitted_) {
      return Status::FailedPrecondition(
          "Fit() must succeed before Synthesize()");
    }
    report = OfflineReportLocked();
  }
  Run r(*this, run, std::move(report));
  SERD_RETURN_IF_ERROR(r.SynthesizeEntities());
  // Last poll before the S3 scan commits to labeling the full pair
  // stream (the scan itself is not interrupted; at serving scales it is
  // bounded by max_label_pairs).
  SERD_RETURN_IF_ERROR(r.CancelPoll());
  r.LabelPairs();
  return r.Finish(report_out);
}

namespace {

/// The run manifest's "report" object.
obs::Json ReportJson(const SerdReport& report) {
  obs::Json rep = obs::Json::Object();
  rep.Set("offline_seconds", report.offline_seconds);
  rep.Set("online_seconds", report.online_seconds);
  rep.Set("accepted_entities", report.accepted_entities);
  rep.Set("rejected_by_discriminator", report.rejected_by_discriminator);
  rep.Set("rejected_by_distribution", report.rejected_by_distribution);
  rep.Set("forced_accepts", report.forced_accepts);
  rep.Set("forced_accepts_discriminator",
          report.forced_accepts_discriminator);
  rep.Set("forced_accepts_distribution",
          report.forced_accepts_distribution);
  rep.Set("tracked_pairs_pos", static_cast<int64_t>(report.tracked_pairs_pos));
  rep.Set("tracked_pairs_neg", static_cast<int64_t>(report.tracked_pairs_neg));
  rep.Set("jsd_evaluations", static_cast<int64_t>(report.jsd_evaluations));
  rep.Set("decode_steps", static_cast<int64_t>(report.decode_steps));
  rep.Set("encoder_cache_hits",
          static_cast<int64_t>(report.encoder_cache_hits));
  rep.Set("encoder_cache_misses",
          static_cast<int64_t>(report.encoder_cache_misses));
  rep.Set("s3_blocked", report.s3_blocked);
  rep.Set("s3_total_pairs", static_cast<int64_t>(report.s3_total_pairs));
  rep.Set("s3_candidate_pairs",
          static_cast<int64_t>(report.s3_candidate_pairs));
  rep.Set("s3_pruned_pairs", static_cast<int64_t>(report.s3_pruned_pairs));
  rep.Set("s3_scanned_pairs", static_cast<int64_t>(report.s3_scanned_pairs));
  rep.Set("s3_scored_pairs", static_cast<int64_t>(report.s3_scored_pairs));
  rep.Set("s3_posterior_matches",
          static_cast<int64_t>(report.s3_posterior_matches));
  rep.Set("s3_block_recall", report.s3_block_recall);
  rep.Set("s3_block_recall_estimated", report.s3_block_recall_estimated);
  rep.Set("guard_exhausted", report.guard_exhausted);
  rep.Set("shortfall_a", report.shortfall_a);
  rep.Set("shortfall_b", report.shortfall_b);
  rep.Set("mean_bank_epsilon", report.mean_bank_epsilon);
  rep.Set("warm_started", report.warm_started);
  rep.Set("jsd_real_vs_syn", report.jsd_real_vs_syn);
  rep.Set("m_components", report.m_components);
  rep.Set("n_components", report.n_components);
  rep.Set("threads_used", report.threads_used);
  rep.Set("parallel_speedup", report.parallel_speedup);
  return rep;
}

}  // namespace

obs::Json SerdSynthesizer::RunManifestJson() const {
  // Snapshot read: holds the state mutex for the whole build, pairing
  // with the mutators' commit locks (the pool-stats and metrics-registry
  // reads below take their own internal locks; no lock ordering cycle —
  // nothing acquires state_mu_ while holding those).
  std::lock_guard<std::mutex> lock(state_mu_);
  obs::Json root = obs::Json::Object();
  root.Set("dataset", real_->name);

  obs::Json opts = obs::Json::Object();
  opts.Set("seed", options_.seed);
  opts.Set("threads", options_.threads);
  opts.Set("threads_resolved", resolved_threads_);
  opts.Set("alpha", options_.alpha);
  opts.Set("beta", options_.beta);
  opts.Set("enable_rejection", options_.enable_rejection);
  opts.Set("max_reject_retries", options_.max_reject_retries);
  opts.Set("rejection_partner_sample", options_.rejection_partner_sample);
  opts.Set("jsd_samples", options_.jsd_samples);
  opts.Set("max_loop_iterations", options_.max_loop_iterations);
  opts.Set("target_a", options_.target_a);
  opts.Set("target_b", options_.target_b);
  opts.Set("max_label_pairs", options_.max_label_pairs);
  opts.Set("blocking", BlockingModeName(options_.blocking));
  opts.Set("observability", options_.observability);
  opts.Set("incremental_decode", options_.string_bank.incremental_decode);
  opts.Set("model_dir", options_.model_dir);
  opts.Set("artifact_mode", static_cast<int>(options_.artifact_mode));
  root.Set("options", std::move(opts));

  root.Set("report", ReportJson(report_));

  // Per text column, each bucket's fit-time keep measurement and whether
  // the bucket decodes (DESIGN.md §2).
  obs::Json banks = obs::Json::Array();
  for (size_t c = 0; c < banks_.size(); ++c) {
    if (banks_[c] == nullptr) continue;
    const StringSynthesisBank& bank = *banks_[c];
    obs::Json entry = obs::Json::Object();
    entry.Set("column", spec_.schema().column(c).name);
    obs::Json buckets = obs::Json::Array();
    for (size_t b = 0; b < bank.models().size(); ++b) {
      const KeepCount count = b < bank.keep_counts().size()
                                  ? bank.keep_counts()[b]
                                  : KeepCount();
      obs::Json bucket = obs::Json::Object();
      bucket.Set("trained", bank.models()[b] != nullptr);
      bucket.Set("decoded", count.decoded);
      bucket.Set("kept", count.kept);
      bucket.Set("decodes", bank.BucketDecodes(static_cast<int>(b)));
      buckets.Append(std::move(bucket));
    }
    entry.Set("buckets", std::move(buckets));
    banks.Append(std::move(entry));
  }
  root.Set("string_banks", std::move(banks));

  if (pool_ != nullptr) {
    // Cumulative over the synthesizer's life: runs share the pool and
    // never reset it (each report carries its own run's delta).
    runtime::ThreadPool::Stats stats = pool_->stats();
    obs::Json pool = obs::Json::Object();
    pool.Set("workers", pool_->num_threads());
    pool.Set("regions", static_cast<int64_t>(stats.regions));
    pool.Set("busy_seconds", stats.busy_seconds);
    pool.Set("wall_seconds", stats.wall_seconds);
    pool.Set("speedup", stats.Speedup());
    root.Set("pool", std::move(pool));
  }

  if (metrics_ != nullptr) {
    root.Set("metrics", obs::SnapshotToJson(metrics_->TakeSnapshot()));
  }
  return root;
}

LabeledPairSet SerdSynthesizer::LabelPairs(const ERDataset& syn,
                                           double neg_per_pos,
                                           Rng* rng) const {
  return BuildLabeledPairs(syn, neg_per_pos, rng, pool_.get());
}

Result<double> SerdSynthesizer::EvaluateSyntheticJsd(const ERDataset& syn,
                                                     int jsd_samples,
                                                     uint64_t seed) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Fit() must succeed first");
  }
  auto o_syn = FitODistribution(syn, spec_, options_.gmm, seed);
  SERD_RETURN_IF_ERROR(o_syn.status());
  return EstimateJsd(*o_syn, o_real_, jsd_samples, seed ^ 0x9e37ULL,
                     pool_.get());
}

}  // namespace serd
