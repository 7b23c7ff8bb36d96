#ifndef SERD_CORE_SERD_H_
#define SERD_CORE_SERD_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "core/cached_sim.h"
#include "core/distribution.h"
#include "data/er_dataset.h"
#include "gan/entity_gan.h"
#include "gmm/incremental.h"
#include "gmm/o_distribution.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "seq2seq/model_bank.h"

namespace serd {

/// All knobs of the SERD pipeline. Defaults follow the paper's settings
/// (Section VII): alpha = 1, beta = 0.6, 10 similarity intervals, 10
/// candidate strings; model/corpus sizes are CPU-scale (DESIGN.md).
struct SerdOptions {
  // --- S1: distribution learning (FitODistribution) ---
  GmmFitOptions gmm;

  // --- S2: synthesis loop ---
  size_t target_a = 0;  ///< 0 = |A_real|
  size_t target_b = 0;  ///< 0 = |B_real|
  bool enable_rejection = true;  ///< false reproduces the SERD- baseline
  double alpha = 1.0;   ///< distribution-rejection slack (paper Eq. 10)
  double beta = 0.6;    ///< discriminator acceptance threshold
  int max_reject_retries = 4;   ///< re-synthesis attempts before forcing
  int rejection_partner_sample = 24;  ///< t of paper Remark (1)
  int jsd_samples = 192;        ///< Monte-Carlo draws per JSD estimate
  /// Hard cap on S2 guard-loop iterations; 0 selects the automatic bound
  /// 60 * (target_a + target_b) + 1000. Exhausting the cap returns an
  /// undersized dataset and sets SerdReport::guard_exhausted (+ shortfall
  /// fields) instead of failing — callers decide whether that is fatal.
  size_t max_loop_iterations = 0;

  // --- string synthesis (Section VI) ---
  StringBankOptions string_bank;

  // --- GAN (cold start + rejection case 1) ---
  GanConfig gan;

  // --- S3: labeling (LabelCrossPairs) ---
  /// Cap on cross pairs examined in the final labeling pass (0 = all).
  /// When the pair stream exceeds the cap, a uniform sample without
  /// replacement (Floyd's algorithm, seeded from `seed`) is labeled.
  size_t max_label_pairs = 250000;

  /// How S3 enumerates the cross-pair space (serd::BlockingMode).
  using BlockingMode = serd::BlockingMode;
  BlockingMode blocking = BlockingMode::kOff;

  // --- artifact store (warm start; DESIGN.md Section 5g) ---
  /// What Fit() does with `model_dir` when it is non-empty.
  enum class ArtifactMode {
    kAuto,  ///< load if a valid artifact exists, else train and save
    kLoad,  ///< load or fail — never train (guarantees no DP budget spend)
    kSave,  ///< always train, then save (overwrites any existing artifact)
  };

  /// Directory holding the model artifact (kModelFileName). Empty (the
  /// default) disables the artifact store entirely. When a valid artifact
  /// is loaded, Fit() skips the whole offline phase — S1 GMM fitting, DP
  /// transformer training, and GAN training — and Synthesize() produces
  /// bit-identical output to a cold run with the same options and seed.
  std::string model_dir;
  ArtifactMode artifact_mode = ArtifactMode::kAuto;

  uint64_t seed = 2024;

  // --- observability ---
  /// When true the synthesizer owns an obs::MetricsRegistry and every
  /// stage records counters/histograms/trace spans into it (see
  /// DESIGN.md "Observability"); RunManifestJson() then carries a full
  /// metrics snapshot. When false (default) no registry exists and every
  /// recording site reduces to a null-pointer test — synthesis output is
  /// byte-identical either way.
  bool observability = false;

  // --- runtime ---
  /// Worker threads for the parallel hot paths (GMM EM, similarity
  /// batches, S3 labeling, JSD sampling, per-example training). 0 uses
  /// hardware_concurrency; 1 runs serial. Results are bit-identical for
  /// any value (see DESIGN.md "Deterministic parallel runtime").
  int threads = 0;
};

/// Outcome statistics of one synthesis run (feeds Tables III-IV and the
/// ablation benches).
struct SerdReport {
  double offline_seconds = 0.0;  ///< transformer banks + GAN training
  double online_seconds = 0.0;   ///< the S2/S3 synthesis loop
  int accepted_entities = 0;
  int rejected_by_discriminator = 0;
  int rejected_by_distribution = 0;
  int forced_accepts = 0;        ///< retries exhausted (sum of the two below)
  /// Forced accepts whose last attempt failed the discriminator test
  /// (paper Section V case 1) vs. the Eq. 10 distribution test (case 2).
  int forced_accepts_discriminator = 0;
  int forced_accepts_distribution = 0;
  /// Partner pairs of accepted entities, split by the Eq. 9 label: with
  /// rejection on, what O_syn tracked (warm-up vectors plus committed
  /// deltas). Forced accepts contribute here too — O_syn must track
  /// every pair the dataset actually contains.
  long tracked_pairs_pos = 0;
  long tracked_pairs_neg = 0;
  long jsd_evaluations = 0;      ///< EstimateJsd calls during Synthesize()
  /// String-bank decode accounting for this run (summed over the text
  /// columns' banks): next-token logits rows computed, and encoder-memory
  /// cache traffic (0 with incremental_decode off, --reference-decode).
  /// Which route the steps ran is fixed by incremental_decode, so it is
  /// not counted.
  long decode_steps = 0;
  long encoder_cache_hits = 0;
  long encoder_cache_misses = 0;
  /// --- S3 labeling accounting. ---
  /// True when this run's S3 used the q-gram blocking index.
  bool s3_blocked = false;
  /// |A_syn| * |B_syn|: the full cross-pair space S3 is responsible for.
  long s3_total_pairs = 0;
  /// Pairs surviving blocking (== s3_total_pairs for the exact scan).
  long s3_candidate_pairs = 0;
  /// Pairs the index pruned without scoring (total - candidates).
  long s3_pruned_pairs = 0;
  /// Pairs enumerated by the labeling loop (candidates, after the
  /// max_label_pairs subsample).
  long s3_scanned_pairs = 0;
  /// Pairs actually scored through the GMM posterior. Scanned pairs
  /// already labeled by S2 (the `known` set) are skipped, so scored <
  /// scanned whenever S2 linked pairs fall inside the scan — the number
  /// bench deltas must compare (the old s3.scanned_pairs counted the
  /// skips as work).
  long s3_scored_pairs = 0;
  /// Matches S3 added on top of the S2-linked ones.
  long s3_posterior_matches = 0;
  /// Estimated recall of the blocked match set vs the exact scan: blocked
  /// matches / (blocked matches + missed-match estimate from a seeded
  /// uniform sample of the pruned pair space). Exactly 1.0 when blocking
  /// is off (precision is 1.0 by construction either way — candidates are
  /// re-scored by the same posterior).
  double s3_block_recall = 1.0;
  /// True when s3_block_recall is the sampled estimate (blocking pruned
  /// pairs and the estimator ran) rather than the trivially-exact 1.0 of
  /// an unblocked full scan. Blocked-only runs (e.g. iTunes-Amazon at
  /// scale 1.0, where the exact scan is out of reach) publish recall into
  /// the same field measured runs use; this flag keeps estimated and
  /// measured values from ever being conflated downstream.
  bool s3_block_recall_estimated = false;
  /// True when the S2 guard loop hit its iteration cap before reaching the
  /// target sizes; the returned dataset is short by shortfall_a/_b rows.
  bool guard_exhausted = false;
  size_t shortfall_a = 0;
  size_t shortfall_b = 0;
  double mean_bank_epsilon = 0.0;  ///< mean DP epsilon across string banks
  double jsd_real_vs_syn = 0.0;    ///< JSD(O_real, O_syn) at the end
  int m_components = 0;          ///< AIC-selected component counts
  int n_components = 0;
  /// True when Fit() restored the offline models from an artifact instead
  /// of training them (offline_seconds is then the load time).
  bool warm_started = false;
  int threads_used = 1;          ///< resolved SerdOptions::threads
  /// Achieved parallel speedup of the run: total busy time across
  /// executors / wall time inside parallel regions, over the run's
  /// interval of the synthesizer's thread pool. 1.0 when serial. Runs that
  /// overlap on one synthesizer share its pool, so each reports the
  /// pool's figure over its own interval, which includes the other's work.
  double parallel_speedup = 1.0;
};

/// Per-run inputs of SerdSynthesizer::Synthesize: everything one run may
/// vary on a fitted synthesizer. The offline models, the sizes and every
/// other knob stay fixed by the constructor's SerdOptions.
struct RunOptions {
  uint64_t seed = 2024;          ///< online-phase seed (SerdOptions::seed)
  bool enable_rejection = true;  ///< false reproduces the SERD- baseline
  /// S3 enumeration strategy (affects only which pairs S3 scores).
  SerdOptions::BlockingMode blocking = SerdOptions::BlockingMode::kOff;
  /// Polled cooperatively (not owned; nullptr = never cancelled): once per
  /// S2 guard-loop iteration, once per rejection attempt, before the S3
  /// labeling scan, and inside the string banks' candidate-decode
  /// early-stop callbacks, so a run stops within one loop iteration of
  /// the token tripping and returns the token's cause
  /// (kCancelled/kDeadlineExceeded).
  const CancelToken* cancel = nullptr;
};

/// The SERD synthesizer (paper Algorithm overview, Section III):
///   S1 learn the M-/N-distributions of E_real as GMMs (EM + AIC),
///   S2 iteratively sample (entity, similarity vector) and synthesize a
///      new entity per column type, with GAN-discriminator and
///      JSD-distribution rejection,
///   S3 label remaining pairs by GMM posterior.
///
/// Privacy architecture (paper Figure 2): Fit() consumes only
/// (a) similarity vectors of E_real — not entity values — and
/// (b) background corpora/entities disjoint from the active domain, on
/// which the transformers are trained with DP-SGD. The single exception,
/// as in the paper, is the categorical value domain (paper Section IV-B1
/// iterates e'[C_i] over the existing categorical values).
///
/// Thread-safety: Fit() and LoadModels() are writers — at most one thread
/// may be inside them, and no run may overlap them. Once fitted, a run is
/// read-only: the const Synthesize(const RunOptions&, SerdReport*) writes
/// nothing to the synthesizer (per-run state lives on the run's stack, the
/// shared metrics registry and thread pool are thread-safe), so any number
/// of threads may run it at once, each byte-identical to its solo run.
/// The single-run facade (set_seed() + Synthesize(const CancelToken*))
/// additionally commits its report into report(); at most one thread may
/// use the facade at a time. RunManifestJson() may be called from any
/// thread at any time: every writer commits its state (models, report)
/// under an internal mutex after a validate/compute phase on locals, and
/// RunManifestJson() reads under the same mutex. report() returns an
/// unsynchronized reference and is only meaningful between facade runs.
class SerdSynthesizer {
 public:
  SerdSynthesizer(const ERDataset& real, SerdOptions options);

  /// S1 plus offline model training. `background_text_corpora` holds one
  /// corpus per *text* column, in schema order of the text columns;
  /// `background_entities` is a table of same-schema entities from the
  /// background domain (GAN training and cold-start decode pools).
  Status Fit(const std::vector<std::vector<std::string>>&
                 background_text_corpora,
             const Table& background_entities);

  /// S2 + S3 over the fitted models. Requires Fit() to have succeeded.
  ///
  /// Read-only: the run builds its report fresh from the fitted state's
  /// offline fields into `*report` (optional) and writes nothing to the
  /// synthesizer, so concurrent runs on one synthesizer never interact
  /// and a cancelled run (RunOptions::cancel) leaves nothing behind — a
  /// re-run of the same options is byte-identical to a run that was never
  /// cancelled. Output depends only on the fitted models, the
  /// constructor's SerdOptions and `run`.
  Result<ERDataset> Synthesize(const RunOptions& run,
                               SerdReport* report) const;

  /// Single-run facade: runs DefaultRunOptions() with `cancel` and, on
  /// success, commits the run's report into report(). Not for concurrent
  /// use (see the class thread-safety contract).
  Result<ERDataset> Synthesize(const CancelToken* cancel = nullptr);

  /// The run options of the facade: the constructor's SerdOptions with the
  /// seed of the last set_seed().
  RunOptions DefaultRunOptions() const;

  /// File name of the model artifact inside SerdOptions::model_dir.
  static constexpr char kModelFileName[] = "serd_models.bin";

  /// Serializes every offline model (O_real, string banks, GAN, decode
  /// pools) to `dir`/kModelFileName — versioned, per-section checksummed
  /// (src/artifact). Creates `dir` if missing. Requires a successful
  /// Fit(); Fit() calls this itself when SerdOptions::model_dir is set.
  Status SaveModels(const std::string& dir) const;

  /// Restores the offline models from `dir`/kModelFileName, replacing any
  /// fitted state. Validates the artifact's checksums and its recorded
  /// schema against this synthesizer's dataset; on any failure the
  /// synthesizer is left exactly as it was (no partial state) and a
  /// descriptive Status is returned. On success the synthesizer behaves
  /// as if Fit() had just trained these models: Synthesize() output is
  /// bit-identical to the run that saved them (same options and seed),
  /// and the DP epsilon recorded at training time is carried over into
  /// the report without spending any further budget.
  ///
  /// The whole validate/decode phase works on locals; the final commit of
  /// the decoded models into the synthesizer happens under the internal
  /// state mutex, so concurrent RunManifestJson() calls observe either
  /// the pre-load or the post-load state, never a mix.
  Status LoadModels(const std::string& dir);

  /// Unsynchronized view of the run report; read it between runs (see the
  /// class thread-safety contract).
  const SerdReport& report() const { return report_; }
  const ODistribution& o_real() const { return o_real_; }
  const SimilaritySpec& spec() const { return spec_; }

  /// The run's metrics registry; null unless SerdOptions::observability.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Run manifest: options, seed, report, pool utilization, and (when
  /// observability is on) a full metrics snapshot — one self-describing
  /// JSON artifact per run, written by `serd_cli --manifest` and the
  /// bench harnesses.
  obs::Json RunManifestJson() const;

  /// Re-seeds the facade's next Synthesize(), leaving the fitted offline
  /// models untouched: Synthesize() after set_seed(s) is bit-identical to
  /// a fresh synthesizer built with SerdOptions::seed = s over the same
  /// loaded artifact (training seeds are derived from the seed too, but
  /// they are only consumed by Fit(), never by the decode path).
  void set_seed(uint64_t seed) {
    std::lock_guard<std::mutex> lock(state_mu_);
    options_.seed = seed;
  }

  /// Offline models (for the Exp-1 user-study harness; null before Fit).
  const EntityGan* gan() const { return gan_.get(); }
  const EntityEncoder* encoder() const { return encoder_.get(); }
  /// The string bank of text column `column`; null for any other column.
  const StringSynthesisBank* string_bank(size_t column) const {
    return column < banks_.size() ? banks_[column].get() : nullptr;
  }

  /// Labels an arbitrary pair set of a synthesized dataset by the GMM
  /// posterior (used to build matcher training data from E_syn).
  LabeledPairSet LabelPairs(const ERDataset& syn, double neg_per_pos,
                            Rng* rng) const;

  /// Post-hoc, trajectory-independent distribution quality measure:
  /// samples labeled pairs from `syn`, fits fresh M-/N-GMMs to their
  /// similarity vectors, and returns the Monte-Carlo JSD against O_real.
  /// This is what the paper's Eq. 3 objective actually asks of the final
  /// dataset (the online tracker in Synthesize() is an incremental
  /// approximation used only for the rejection decision).
  Result<double> EvaluateSyntheticJsd(const ERDataset& syn,
                                      int jsd_samples = 512,
                                      uint64_t seed = 12345) const;

 private:
  /// One Synthesize(const RunOptions&, SerdReport*) call: its state and
  /// the paper's S2 and S3 steps over it (serd.cc).
  class Run;

  /// Precomputed categorical similarities for one column:
  /// rows[index[v]][j] == ColumnSimilarity(c, v, domain[j]). Synthesizing a
  /// categorical cell previously scanned the full domain twice, rebuilding
  /// both q-gram sets per comparison; with the table it is one hash lookup
  /// plus a linear pass over a precomputed row. Sources outside the domain
  /// (cold-start decodes from the background pool) fall back to computing
  /// their row on the fly.
  struct CatSimTable {
    std::unordered_map<std::string, size_t> index;
    /// HashedQgramSet(domain[i], 3).
    std::vector<std::vector<uint32_t>> grams;
    std::vector<std::vector<double>> rows;
  };

  /// Synthesizes e' from e so that sim(e, e') ≈ x (paper Section IV-B1).
  Entity SynthesizeFrom(const Entity& e, const Vec& x, Rng* rng,
                        BankRun* bank_run) const;

  /// Fit()'s offline steps after S1: one DP-trained string bank per text
  /// column, then the GAN over the background entities' encodings and
  /// the cold-start decode pools.
  Status TrainStringBanks(
      const std::vector<std::vector<std::string>>& background_text_corpora);
  Status TrainGan(const Table& background_entities);

  /// Measures every trained bucket's keep count on background sources
  /// and installs it into the banks; the last step of a training Fit().
  void MeasureBankKeepCounts();

  /// A run's starting report: the fitted state's offline fields, every
  /// online field at its default. Caller holds state_mu_.
  SerdReport OfflineReportLocked() const;

  const ERDataset* real_;
  SerdOptions options_;
  SimilaritySpec spec_;
  std::unique_ptr<CachedSimilarity> cached_sim_;
  /// One table per column; only categorical columns are populated.
  std::vector<CatSimTable> cat_sim_;
  /// Shared worker pool for every parallel hot path; null when the
  /// resolved thread count is 1 (pure serial, no pool overhead). The pool
  /// holds `threads - 1` workers because the calling thread participates
  /// in every parallel region.
  std::unique_ptr<runtime::ThreadPool> pool_;
  size_t resolved_threads_ = 1;
  /// Owned registry; allocated in the constructor iff
  /// options_.observability, and threaded into the gmm/string-bank/GAN
  /// sub-options so every stage shares it.
  std::unique_ptr<obs::MetricsRegistry> metrics_;

  ODistribution o_real_;
  std::vector<std::unique_ptr<StringSynthesisBank>> banks_;  // per column (null for non-text)
  std::unique_ptr<EntityEncoder> encoder_;
  std::unique_ptr<EntityGan> gan_;
  std::vector<std::vector<std::string>> decode_pools_;

  bool fitted_ = false;
  /// Wall-clock seconds of the training run that produced the current
  /// offline models — surviving any number of save/load cycles, so a
  /// re-saved artifact is byte-identical to its source (report_'s
  /// offline_seconds becomes the load time after a warm start).
  double source_offline_seconds_ = 0.0;
  SerdReport report_;
  /// Guards the commit of writer results (models, options_.seed,
  /// report_, fitted_), every run's read of the fitted state, and every
  /// RunManifestJson() read — see the class thread-safety contract.
  mutable std::mutex state_mu_;
};

/// Checks the options Fit() reads before any work: the string banks'
/// candidates, buckets and temperature, and their training's epochs, lot
/// size, learning rate, clip bound and noise multiplier. InvalidArgument
/// names the first bad field. Fit() returns it before an artifact load is
/// attempted; serd_cli calls it first, so a bad option is never reported
/// as an artifact failure.
Status ValidateSerdOptions(const SerdOptions& options);

/// Stable wire/CLI names of the blocking modes: "off", "qgram", "auto".
const char* BlockingModeName(SerdOptions::BlockingMode mode);

/// Parses a BlockingModeName back; false on an unknown name.
bool ParseBlockingMode(const std::string& name,
                       SerdOptions::BlockingMode* mode);

/// Buckets an artifact load failure (a LoadModels() Status) into a short
/// stable cause tag: "io" (missing/unreadable file), "crc", "format",
/// "schema", "version", "missing_section", or "decode". Feeds the
/// artifact.load_fail_<cause> counters and the CLI error line.
const char* ArtifactLoadFailureCause(const Status& status);

/// Distinct process exit code for an artifact load failure, so scripts
/// can tell "wrong path" from "corrupt file" from "wrong schema" without
/// parsing stderr: 0 for OK, 3 io, 4 corrupt bytes (crc/format/
/// missing_section), 5 schema mismatch, 6 format-version skew, 7 other
/// decode rejection. serd_cli exits with this code when --load-models
/// fails.
int ArtifactLoadExitCode(const Status& status);

}  // namespace serd

#endif  // SERD_CORE_SERD_H_
