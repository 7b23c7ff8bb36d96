#include "core/serd.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
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

  // ----- Offline: one transformer bank per text column. -----
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
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    report_.mean_bank_epsilon = eps_count > 0 ? total_eps / eps_count : 0.0;
  }
  banks_span.Stop();

  // ----- Offline: GAN over background entity encodings. -----
  if (!(background_entities.schema() == schema)) {
    return Status::InvalidArgument(
        "background entities must share the dataset schema");
  }
  if (background_entities.empty()) {
    return Status::InvalidArgument("background entities table is empty");
  }
  encoder_ = std::make_unique<EntityEncoder>(spec_, options_.encoder);
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

Entity SerdSynthesizer::ColdStartEntity(Rng* rng) const {
  SERD_CHECK(gan_ != nullptr && encoder_ != nullptr);
  std::vector<float> features = gan_->GenerateFeatures(rng);
  Entity e = encoder_->Decode(features, decode_pools_);
  e.id = "seed";
  return e;
}

bool SerdSynthesizer::RejectedByDiscriminator(const Entity& e) const {
  if (gan_ == nullptr || !gan_->trained()) return false;
  double score = gan_->DiscriminatorScore(encoder_->Encode(e));
  return score < options_.beta;
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

Result<ERDataset> SerdSynthesizer::Synthesize(const RunOptions& run,
                                              SerdReport* report_out) const {
  // Every piece of run state — report, bank accounting, O_syn trackers,
  // the dataset — lives in this frame, so concurrent runs never interact
  // and every `return cancel_status()` below leaves nothing behind.
  SerdReport report;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!fitted_) {
      return Status::FailedPrecondition(
          "Fit() must succeed before Synthesize()");
    }
    report = OfflineReportLocked();
  }
  const CancelToken* cancel = run.cancel;
  auto cancel_status = [cancel]() -> Status {
    Status cause = cancel->cause();
    return cause.ok() ? Status::Cancelled("synthesis cancelled") : cause;
  };
  // The token also reaches the string banks' decode early-stop callbacks,
  // so a trip interrupts a candidate decode already in flight, not just
  // the next loop iteration.
  BankRun bank_run;
  bank_run.cancel = cancel;
  WallTimer timer;
  const runtime::ThreadPool::Stats pool_before =
      pool_ != nullptr ? pool_->stats() : runtime::ThreadPool::Stats();
  Rng rng(run.seed ^ 0x51e2d5ULL);

  // Metric handles resolved once, outside the loop (all null when
  // observability is off; recording through them is then one pointer test
  // per site).
  obs::Counter* c_accepted = obs::GetCounter(metrics_.get(), "s2.accepted");
  obs::Counter* c_rej_disc =
      obs::GetCounter(metrics_.get(), "s2.rejected_discriminator");
  obs::Counter* c_rej_dist =
      obs::GetCounter(metrics_.get(), "s2.rejected_distribution");
  obs::Counter* c_forced_disc =
      obs::GetCounter(metrics_.get(), "s2.forced_accepts_discriminator");
  obs::Counter* c_forced_dist =
      obs::GetCounter(metrics_.get(), "s2.forced_accepts_distribution");
  obs::Counter* c_tracked_pos =
      obs::GetCounter(metrics_.get(), "s2.tracked_pairs_pos");
  obs::Counter* c_tracked_neg =
      obs::GetCounter(metrics_.get(), "s2.tracked_pairs_neg");
  obs::Counter* c_jsd_evals =
      obs::GetCounter(metrics_.get(), "s2.jsd_evaluations");
  obs::Counter* c_guard =
      obs::GetCounter(metrics_.get(), "s2.guard_exhausted");
  obs::Histogram* h_attempts = obs::GetHistogram(
      metrics_.get(), "s2.attempts_per_entity", obs::LinearBounds(1.0, 8.0, 8));
  obs::Histogram* h_jsd_seconds =
      obs::GetTimer(metrics_.get(), "s2.jsd_seconds");
  // Per attempt: the discriminator test, and the O_syn preview (both
  // ComputeDelta calls and both PreviewModel calls) that Eq. 10 scores.
  obs::Histogram* h_discriminator_seconds =
      obs::GetTimer(metrics_.get(), "s2.discriminator_seconds");
  obs::Histogram* h_preview_seconds =
      obs::GetTimer(metrics_.get(), "s2.preview_seconds");
  // Per attempt: the candidate's digest, its partner similarity vectors
  // and their posterior labels.
  obs::Histogram* h_partner_seconds =
      obs::GetTimer(metrics_.get(), "s2.partner_seconds");

  const size_t na = options_.target_a > 0 ? options_.target_a : real_->a.size();
  const size_t nb = options_.target_b > 0 ? options_.target_b : real_->b.size();
  SERD_CHECK(na > 0 && nb > 0);

  ERDataset syn;
  syn.name = real_->name + "-SERD" + (run.enable_rejection ? "" : "-");
  syn.a = Table(spec_.schema());
  syn.b = Table(spec_.schema());

  std::vector<CachedSimilarity::Digest> a_digests, b_digests;
  a_digests.reserve(na);
  b_digests.reserve(nb);

  // `digest` is MakeDigest(e), which does not read the id.
  auto append_entity = [&](bool to_a, Entity e,
                           CachedSimilarity::Digest digest) -> size_t {
    Table& t = to_a ? syn.a : syn.b;
    auto& digests = to_a ? a_digests : b_digests;
    e.id = (to_a ? "sa" : "sb") + std::to_string(t.size());
    digests.push_back(std::move(digest));
    t.Append(std::move(e));
    return t.size() - 1;
  };

  // Bootstrap with one GAN-generated A-entity (paper step S2 start).
  {
    Entity seed = ColdStartEntity(&rng);
    CachedSimilarity::Digest seed_digest = cached_sim_->MakeDigest(seed);
    append_entity(true, std::move(seed), std::move(seed_digest));
  }
  ++report.accepted_entities;
  obs::Inc(c_accepted);
  obs::TraceSpan s2_span(metrics_.get(), "s2.loop");

  // O_syn tracking state (paper Section V, case 2).
  std::vector<Vec> warm_pos, warm_neg;
  std::unique_ptr<IncrementalGmm> m_syn, n_syn;
  size_t syn_pos_count = 0, syn_neg_count = 0;
  double current_jsd = 0.0;
  const uint64_t jsd_seed = run.seed ^ 0x15d0ULL;
  // All JSD estimates during the run go through this wrapper so the
  // evaluation count and (when observability is on) the per-call wall time
  // are accounted in one place. Every estimate is against O_real with the
  // same seed, so O_real's half of it is drawn and scored once per run, by
  // the estimator the first evaluation builds (and times).
  std::optional<JsdEstimator> jsd_estimator;
  // An arm previewed without new pairs is its committed model, so its
  // log-densities at the estimator's stored O_real draws carry over from
  // the last estimate that computed them. Each cache holds its model, so
  // the model cannot be freed and its address reused while cached.
  struct StoredArm {
    std::shared_ptr<const Gmm> model;
    std::vector<double> log_pdf;
  };
  StoredArm m_stored, n_stored;
  auto stored_log_pdf = [&](const IncrementalGmm::Update* update,
                            StoredArm* arm) -> const double* {
    if (update == nullptr || !update->unchanged) return nullptr;
    if (arm->model != update->model) {
      jsd_estimator->StoredArmLogPdf(*update->model, &arm->log_pdf);
      arm->model = update->model;
    }
    return arm->log_pdf.data();
  };
  // The updates, when given, are the previews o_syn was built from.
  auto run_jsd = [&](const ODistribution& o_syn,
                     const IncrementalGmm::Update* m_update,
                     const IncrementalGmm::Update* n_update) {
    if (!jsd_estimator.has_value()) {
      jsd_estimator.emplace(o_real_, options_.jsd_samples, jsd_seed,
                            pool_.get());
    }
    return jsd_estimator->Estimate(o_syn, stored_log_pdf(m_update, &m_stored),
                                   stored_log_pdf(n_update, &n_stored));
  };
  auto estimate_jsd = [&](const ODistribution& o_syn,
                          const IncrementalGmm::Update* m_update = nullptr,
                          const IncrementalGmm::Update* n_update = nullptr) {
    ++report.jsd_evaluations;
    obs::Inc(c_jsd_evals);
    if (h_jsd_seconds == nullptr) return run_jsd(o_syn, m_update, n_update);
    WallTimer jsd_timer;
    double v = run_jsd(o_syn, m_update, n_update);
    h_jsd_seconds->Record(jsd_timer.Seconds());
    return v;
  };
  auto rejected_by_discriminator = [&](const Entity& candidate) {
    if (h_discriminator_seconds == nullptr) {
      return RejectedByDiscriminator(candidate);
    }
    WallTimer discriminator_timer;
    const bool rejected = RejectedByDiscriminator(candidate);
    h_discriminator_seconds->Record(discriminator_timer.Seconds());
    return rejected;
  };
  auto current_o_syn = [&]() {
    double pi_syn =
        static_cast<double>(syn_pos_count) /
        static_cast<double>(std::max<size_t>(1, syn_pos_count + syn_neg_count));
    pi_syn = std::clamp(pi_syn, 0.001, 0.999);
    return ODistribution(pi_syn, m_syn->shared_model(), n_syn->shared_model());
  };

  // Labels for sampled pairs (step S2-4).
  struct LinkedPair {
    size_t a_idx, b_idx;
    bool match;
  };
  std::vector<LinkedPair> linked;

  // Arm-sampling rate for S2-2 (see SerdOptions::match_link_rate).
  double link_rate = options_.match_link_rate;
  if (link_rate <= 0.0) {
    link_rate = static_cast<double>(real_->matches.size()) /
                static_cast<double>(na + nb);
    link_rate = std::clamp(link_rate, 0.02, 0.9);
  }
  auto sample_vector = [&](Rng* r) {
    ODistribution::SampleResult out;
    out.from_match = r->Bernoulli(link_rate);
    out.x = out.from_match ? o_real_.m_distribution().Sample(r)
                           : o_real_.n_distribution().Sample(r);
    for (double& v : out.x) v = std::clamp(v, 0.0, 1.0);
    return out;
  };

  // Each attempt's partner similarity vectors, the same vectors
  // dimension-major for their posteriors, and the vectors split by label.
  // The three vector pools only grow, so once they have grown an attempt
  // allocates no similarity vector (SimilarityVectorInto and swaps).
  std::vector<Vec> partner_vecs, delta_pos, delta_neg;
  std::vector<double> partner_xs, partner_posteriors;
  std::vector<size_t> chosen;  // Floyd's picks, at most t_cap
  const size_t dim = o_real_.dimension();
  const size_t t_cap =
      static_cast<size_t>(std::max(1, options_.rejection_partner_sample));
  size_t guard = 0;
  const size_t max_iterations = options_.max_loop_iterations > 0
                                    ? options_.max_loop_iterations
                                    : 60 * (na + nb) + 1000;
  while ((syn.a.size() < na || syn.b.size() < nb) &&
         guard++ < max_iterations) {
    // Deadline/cancellation poll: one relaxed atomic load per accepted
    // entity, so a tripped token stops the run within one loop iteration.
    if (cancel != nullptr && cancel->cancelled()) return cancel_status();
    // --- S2-1: choose the source entity e. ---
    bool a_full = syn.a.size() >= na;
    bool b_full = syn.b.size() >= nb;
    bool e_from_a;
    if (a_full) {
      e_from_a = true;  // e' must go to B
    } else if (b_full) {
      e_from_a = false;  // e' must go to A
    } else {
      size_t total = syn.a.size() + syn.b.size();
      e_from_a = rng.UniformInt(total) < syn.a.size();
    }
    const Table& source_table = e_from_a ? syn.a : syn.b;
    const auto& source_digests = e_from_a ? a_digests : b_digests;
    if (source_table.empty()) continue;
    size_t e_idx = rng.UniformInt(source_table.size());
    const Entity& e = source_table.row(e_idx);

    // --- S2-2 + S2-3 with rejection retries. ---
    // Every guard iteration accepts exactly one entity: the final
    // attempt's candidate is kept even when a rejection test fails (a
    // "forced accept", split by cause below). Crucially, forced accepts
    // run through the same delta-compute/commit path as normal accepts —
    // only the Eq. 10 rejection *decision* is skipped — so O_syn tracking
    // covers every pair the dataset actually contains. (The pre-fix code
    // synthesized a fresh entity on force and committed nothing, letting
    // O_syn drift whenever the discriminator was strict.)
    Entity e_new;
    CachedSimilarity::Digest e_new_digest;
    bool is_match = false;
    for (int attempt = 0; attempt <= options_.max_reject_retries;
         ++attempt) {
      // Per-attempt poll: rejection retries can dominate an iteration's
      // wall time (each one decodes candidates and estimates a JSD), so a
      // deadline that trips mid-iteration is honored between attempts too.
      if (cancel != nullptr && cancel->cancelled()) return cancel_status();
      const bool last_attempt = attempt == options_.max_reject_retries;
      auto sample = sample_vector(&rng);
      Entity candidate = SynthesizeFrom(e, sample.x, &rng, &bank_run);

      bool forced_disc = false;
      if (run.enable_rejection && rejected_by_discriminator(candidate)) {
        ++report.rejected_by_discriminator;
        obs::Inc(c_rej_disc);
        if (!last_attempt) continue;
        forced_disc = true;  // retries exhausted: keep it anyway
      }

      // Induced pairs between the candidate and (a sample of) T_e
      // (paper Remark (1): sample t partners).
      std::optional<WallTimer> partner_timer;
      if (h_partner_seconds != nullptr) partner_timer.emplace();
      CachedSimilarity::Digest digest = cached_sim_->MakeDigest(candidate);
      const size_t partners = source_table.size();
      const size_t num_partners = std::min(partners, t_cap);
      if (partner_vecs.size() < num_partners) {
        partner_vecs.resize(num_partners);
      }
      if (partners <= t_cap) {
        for (size_t s = 0; s < partners; ++s) {
          cached_sim_->SimilarityVectorInto(source_digests[s], digest,
                                            &partner_vecs[s]);
        }
      } else {
        // Floyd's algorithm: t_cap *distinct* partner indices in t_cap
        // draws (one UniformInt per selection, like the old
        // with-replacement loop, which could feed duplicate pairs into
        // the Eq. 9 delta and double-count them).
        chosen.clear();
        size_t t = 0;
        for (size_t j = partners - t_cap; j < partners; ++j) {
          size_t pick = rng.UniformInt(j + 1);
          if (std::find(chosen.begin(), chosen.end(), pick) != chosen.end()) {
            pick = j;
          }
          chosen.push_back(pick);
          cached_sim_->SimilarityVectorInto(source_digests[pick], digest,
                                            &partner_vecs[t++]);
        }
      }
      // The partners' posteriors are one batch; delta_pos and delta_neg
      // keep partner order, the order ComputeDelta sums in.
      partner_xs.resize(dim * num_partners);
      partner_posteriors.resize(num_partners);
      for (size_t t = 0; t < num_partners; ++t) {
        for (size_t c = 0; c < dim; ++c) {
          partner_xs[c * num_partners + t] = partner_vecs[t][c];
        }
      }
      o_real_.PosteriorMatchBatch(partner_xs.data(), num_partners,
                                  partner_posteriors.data());
      if (delta_pos.size() < num_partners) delta_pos.resize(num_partners);
      if (delta_neg.size() < num_partners) delta_neg.resize(num_partners);
      size_t num_pos = 0, num_neg = 0;
      for (size_t t = 0; t < num_partners; ++t) {
        // LabelAsMatch's rule: P_m(x) >= P_n(x).
        if (partner_posteriors[t] >= 0.5) {
          delta_pos[num_pos++].swap(partner_vecs[t]);
        } else {
          delta_neg[num_neg++].swap(partner_vecs[t]);
        }
      }
      if (partner_timer) h_partner_seconds->Record(partner_timer->Seconds());

      bool forced_dist = false;
      if (run.enable_rejection && m_syn != nullptr && n_syn != nullptr) {
        // Preview the updated O_syn and apply the paper's Eq. 10 test.
        std::optional<WallTimer> preview_timer;
        if (h_preview_seconds != nullptr) preview_timer.emplace();
        IncrementalGmm::Update m_update =
            m_syn->Preview(delta_pos.data(), num_pos);
        IncrementalGmm::Update n_update =
            n_syn->Preview(delta_neg.data(), num_neg);
        if (preview_timer) h_preview_seconds->Record(preview_timer->Seconds());
        double pi_new =
            static_cast<double>(syn_pos_count + num_pos) /
            static_cast<double>(std::max<size_t>(
                1, syn_pos_count + syn_neg_count + num_pos + num_neg));
        pi_new = std::clamp(pi_new, 0.001, 0.999);
        const ODistribution o_syn_new(pi_new, m_update.model, n_update.model);
        double jsd_new = estimate_jsd(o_syn_new, &m_update, &n_update);
        if (jsd_new > options_.alpha * current_jsd && !forced_disc) {
          if (!last_attempt) {
            ++report.rejected_by_distribution;
            obs::Inc(c_rej_dist);
            continue;
          }
          forced_dist = true;
        }
        // Accept: commit the previews (forced accepts included — the pairs
        // enter the dataset either way).
        m_syn->Commit(std::move(m_update));
        n_syn->Commit(std::move(n_update));
        syn_pos_count += num_pos;
        syn_neg_count += num_neg;
        current_jsd = jsd_new;
      } else {
        // Warmup: accumulate vectors until enough to fit O_syn.
        warm_pos.insert(warm_pos.end(), delta_pos.begin(),
                        delta_pos.begin() + num_pos);
        warm_neg.insert(warm_neg.end(), delta_neg.begin(),
                        delta_neg.begin() + num_neg);
      }
      report.tracked_pairs_pos += static_cast<long>(num_pos);
      report.tracked_pairs_neg += static_cast<long>(num_neg);
      obs::Inc(c_tracked_pos, num_pos);
      obs::Inc(c_tracked_neg, num_neg);

      if (forced_disc) {
        ++report.forced_accepts;
        ++report.forced_accepts_discriminator;
        obs::Inc(c_forced_disc);
      } else if (forced_dist) {
        ++report.forced_accepts;
        ++report.forced_accepts_distribution;
        obs::Inc(c_forced_dist);
      }
      obs::Observe(h_attempts, static_cast<double>(attempt + 1));
      e_new = std::move(candidate);
      e_new_digest = std::move(digest);
      is_match = sample.from_match;
      break;
    }

    // --- S2-4: add e' to the opposite table and record the label. ---
    size_t new_idx =
        append_entity(!e_from_a, std::move(e_new), std::move(e_new_digest));
    ++report.accepted_entities;
    obs::Inc(c_accepted);
    if (e_from_a) {
      linked.push_back({e_idx, new_idx, is_match});
    } else {
      linked.push_back({new_idx, e_idx, is_match});
    }

    // Initialize the O_syn trackers once warmed up.
    if (run.enable_rejection && m_syn == nullptr &&
        static_cast<size_t>(report.accepted_entities) >=
            options_.o_syn_warmup &&
        warm_pos.size() >= 4 && warm_neg.size() >= 4) {
      GmmFitOptions syn_fit = options_.gmm;
      syn_fit.max_components = std::max(report.m_components, 1);
      auto m0 = Gmm::FitWithAic(warm_pos, syn_fit);
      syn_fit.max_components = std::max(report.n_components, 1);
      auto n0 = Gmm::FitWithAic(warm_neg, syn_fit);
      if (m0.ok() && n0.ok()) {
        m_syn = std::make_unique<IncrementalGmm>(m0.value(), warm_pos);
        n_syn = std::make_unique<IncrementalGmm>(n0.value(), warm_neg);
        syn_pos_count = warm_pos.size();
        syn_neg_count = warm_neg.size();
        current_jsd = estimate_jsd(current_o_syn());
      }
    }
  }
  s2_span.Stop();

  if (syn.a.size() < na || syn.b.size() < nb) {
    // The guard tripped before the targets were reached: report the
    // shortfall loudly instead of silently handing back a smaller dataset.
    report.guard_exhausted = true;
    report.shortfall_a = na - syn.a.size();
    report.shortfall_b = nb - syn.b.size();
    obs::Inc(c_guard);
    SERD_LOG(kWarning) << syn.name << ": S2 guard exhausted after "
                       << max_iterations << " iterations; returning "
                       << syn.a.size() << "/" << na << " A and "
                       << syn.b.size() << "/" << nb << " B entities";
  }

  // --- S2-4 bookkeeping: explicit matching links. ---
  for (const auto& lp : linked) {
    if (lp.match) syn.matches.push_back({lp.a_idx, lp.b_idx});
  }

  // Last poll before the S3 scan commits to labeling the full pair
  // stream (the scan itself is not interrupted; at serving scales it is
  // bounded by max_label_pairs).
  if (cancel != nullptr && cancel->cancelled()) return cancel_status();

  // --- S3: label remaining pairs by posterior (paper Section IV-C). ---
  std::unordered_set<uint64_t> known;
  for (const auto& lp : linked) {
    known.insert(static_cast<uint64_t>(lp.a_idx) * syn.b.size() + lp.b_idx);
  }
  CrossPairLabels s3 = LabelCrossPairs(
      o_real_, *cached_sim_, a_digests, b_digests, known, run.blocking,
      options_.max_label_pairs, run.seed, pool_.get(), metrics_.get());
  syn.matches.insert(syn.matches.end(), s3.matches.begin(),
                     s3.matches.end());
  report.s3_blocked = s3.blocked;
  report.s3_total_pairs = static_cast<long>(s3.total_pairs);
  report.s3_candidate_pairs = static_cast<long>(s3.candidate_pairs);
  report.s3_pruned_pairs =
      static_cast<long>(s3.total_pairs - s3.candidate_pairs);
  report.s3_scanned_pairs = static_cast<long>(s3.scanned_pairs);
  report.s3_scored_pairs = static_cast<long>(s3.scored_pairs);
  report.s3_posterior_matches = static_cast<long>(s3.matches.size());
  report.s3_block_recall = s3.block_recall;
  report.s3_block_recall_estimated = s3.block_recall_estimated;

  if (m_syn != nullptr && n_syn != nullptr) {
    report.jsd_real_vs_syn = estimate_jsd(current_o_syn());
  }
  if (pool_ != nullptr) {
    runtime::ThreadPool::Stats delta = pool_->stats();
    delta.busy_seconds -= pool_before.busy_seconds;
    delta.wall_seconds -= pool_before.wall_seconds;
    report.parallel_speedup = delta.Speedup();
  }
  report.decode_steps = bank_run.decode_steps;
  report.encoder_cache_hits = bank_run.encoder_cache_hits;
  report.encoder_cache_misses = bank_run.encoder_cache_misses;
  report.online_seconds = timer.Seconds();
  if (metrics_ != nullptr) {
    metrics_->gauge("run.online_seconds")->Set(report.online_seconds);
    metrics_->gauge("run.parallel_speedup")->Set(report.parallel_speedup);
  }
  if (options_.verbose) {
    SERD_LOG(kInfo) << syn.name << ": accepted=" << report.accepted_entities
                    << " rej_disc=" << report.rejected_by_discriminator
                    << " rej_dist=" << report.rejected_by_distribution
                    << " forced=" << report.forced_accepts
                    << " jsd=" << report.jsd_real_vs_syn;
  }
  if (report_out != nullptr) *report_out = report;
  return syn;
}

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
  opts.Set("o_syn_warmup", options_.o_syn_warmup);
  opts.Set("max_loop_iterations", options_.max_loop_iterations);
  opts.Set("target_a", options_.target_a);
  opts.Set("target_b", options_.target_b);
  opts.Set("match_link_rate", options_.match_link_rate);
  opts.Set("max_label_pairs", options_.max_label_pairs);
  opts.Set("blocking", BlockingModeName(options_.blocking));
  opts.Set("observability", options_.observability);
  opts.Set("incremental_decode", options_.string_bank.incremental_decode);
  opts.Set("model_dir", options_.model_dir);
  opts.Set("artifact_mode", static_cast<int>(options_.artifact_mode));
  root.Set("options", std::move(opts));

  obs::Json rep = obs::Json::Object();
  rep.Set("offline_seconds", report_.offline_seconds);
  rep.Set("online_seconds", report_.online_seconds);
  rep.Set("accepted_entities", report_.accepted_entities);
  rep.Set("rejected_by_discriminator", report_.rejected_by_discriminator);
  rep.Set("rejected_by_distribution", report_.rejected_by_distribution);
  rep.Set("forced_accepts", report_.forced_accepts);
  rep.Set("forced_accepts_discriminator",
          report_.forced_accepts_discriminator);
  rep.Set("forced_accepts_distribution",
          report_.forced_accepts_distribution);
  rep.Set("tracked_pairs_pos", static_cast<int64_t>(report_.tracked_pairs_pos));
  rep.Set("tracked_pairs_neg", static_cast<int64_t>(report_.tracked_pairs_neg));
  rep.Set("jsd_evaluations", static_cast<int64_t>(report_.jsd_evaluations));
  rep.Set("decode_steps", static_cast<int64_t>(report_.decode_steps));
  rep.Set("encoder_cache_hits",
          static_cast<int64_t>(report_.encoder_cache_hits));
  rep.Set("encoder_cache_misses",
          static_cast<int64_t>(report_.encoder_cache_misses));
  rep.Set("s3_blocked", report_.s3_blocked);
  rep.Set("s3_total_pairs", static_cast<int64_t>(report_.s3_total_pairs));
  rep.Set("s3_candidate_pairs",
          static_cast<int64_t>(report_.s3_candidate_pairs));
  rep.Set("s3_pruned_pairs", static_cast<int64_t>(report_.s3_pruned_pairs));
  rep.Set("s3_scanned_pairs", static_cast<int64_t>(report_.s3_scanned_pairs));
  rep.Set("s3_scored_pairs", static_cast<int64_t>(report_.s3_scored_pairs));
  rep.Set("s3_posterior_matches",
          static_cast<int64_t>(report_.s3_posterior_matches));
  rep.Set("s3_block_recall", report_.s3_block_recall);
  rep.Set("s3_block_recall_estimated", report_.s3_block_recall_estimated);
  rep.Set("guard_exhausted", report_.guard_exhausted);
  rep.Set("shortfall_a", report_.shortfall_a);
  rep.Set("shortfall_b", report_.shortfall_b);
  rep.Set("mean_bank_epsilon", report_.mean_bank_epsilon);
  rep.Set("warm_started", report_.warm_started);
  rep.Set("jsd_real_vs_syn", report_.jsd_real_vs_syn);
  rep.Set("m_components", report_.m_components);
  rep.Set("n_components", report_.n_components);
  rep.Set("threads_used", report_.threads_used);
  rep.Set("parallel_speedup", report_.parallel_speedup);
  root.Set("report", std::move(rep));

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
