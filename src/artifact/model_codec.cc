#include "artifact/model_codec.h"

#include <cmath>
#include <utility>

namespace serd::artifact {

namespace {

/// Upper bounds on structural fields. Real models in this repo are orders
/// of magnitude smaller; anything beyond these came from a corrupted or
/// hostile payload and is rejected before allocation.
constexpr uint32_t kMaxDimension = 256;       // similarity-vector dims
constexpr uint32_t kMaxComponents = 256;      // GMM components
constexpr uint32_t kMaxVocab = 100000;        // char vocab entries
constexpr uint32_t kMaxModelDim = 4096;       // d_model / latent / hidden
constexpr uint32_t kMaxLayers = 64;
constexpr uint32_t kMaxFfn = 65536;
constexpr uint32_t kMaxSeqLen = 65536;
constexpr uint32_t kMaxBuckets = 1000;
constexpr uint32_t kMaxFeatureDim = 1u << 20;

/// The gate section's one-byte precision tag. Every writer writes 0 (the
/// keep measurement decodes at fp32); 2 marks a measurement taken by an
/// older build at its retired 8-bit decode precision. Both load the same
/// counts, and the tag is not kept.
constexpr uint8_t kKeepTagFp32 = 0;
constexpr uint8_t kKeepTagInt8 = 2;

/// Reads a u32 and fails the reader unless it lies in [lo, hi].
uint32_t BoundedU32(ByteReader* r, uint32_t lo, uint32_t hi,
                    const char* what) {
  uint32_t v = r->U32();
  if (r->ok() && (v < lo || v > hi)) {
    r->Fail(std::string(what) + " = " + std::to_string(v) +
            " out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
  }
  return r->ok() ? v : 0;
}

/// Reads a row-major d x d matrix written as an F64Vec.
Matrix ReadSquareMatrix(ByteReader* r, uint32_t d, const char* what) {
  std::vector<double> data = r->F64Vec();
  if (!r->ok()) return Matrix();
  if (data.size() != static_cast<size_t>(d) * d) {
    r->Fail(std::string(what) + " has " + std::to_string(data.size()) +
            " entries, want " + std::to_string(d) + "x" + std::to_string(d));
    return Matrix();
  }
  Matrix m(d, d);
  m.data() = std::move(data);
  return m;
}

}  // namespace

// --- distributions -----------------------------------------------------

void EncodeGaussian(const MultivariateGaussian& g, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(g.dimension()));
  w->F64Vec(g.mean());
  w->F64Vec(g.covariance().data());
  w->F64Vec(g.cholesky().data());
  w->F64(g.log_det());
}

Result<MultivariateGaussian> DecodeGaussian(ByteReader* r) {
  uint32_t d = BoundedU32(r, 1, kMaxDimension, "gaussian dimension");
  Vec mean = r->F64Vec();
  if (r->ok() && mean.size() != d) {
    r->Fail("gaussian mean has " + std::to_string(mean.size()) +
            " entries, want " + std::to_string(d));
  }
  Matrix cov = ReadSquareMatrix(r, d, "gaussian covariance");
  Matrix chol = ReadSquareMatrix(r, d, "gaussian cholesky");
  double log_det = r->F64();
  if (!r->ok()) return r->status();
  return MultivariateGaussian::FromParts(std::move(mean), std::move(cov),
                                         std::move(chol), log_det);
}

void EncodeGmm(const Gmm& gmm, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(gmm.num_components()));
  w->F64Vec(gmm.weights());
  for (size_t i = 0; i < gmm.num_components(); ++i) {
    EncodeGaussian(gmm.component(i), w);
  }
}

Result<Gmm> DecodeGmm(ByteReader* r) {
  uint32_t g = BoundedU32(r, 1, kMaxComponents, "gmm component count");
  std::vector<double> weights = r->F64Vec();
  if (r->ok() && weights.size() != g) {
    r->Fail("gmm has " + std::to_string(weights.size()) +
            " weights for " + std::to_string(g) + " components");
  }
  if (r->ok()) {
    double total = 0.0;
    for (double w : weights) {
      if (!std::isfinite(w) || w < 0.0) {
        r->Fail("gmm component weight " + std::to_string(w) +
                " is negative or non-finite");
        break;
      }
      total += w;
    }
    if (r->ok() && total <= 0.0) r->Fail("gmm weights sum to zero");
  }
  std::vector<MultivariateGaussian> components;
  components.reserve(r->ok() ? g : 0);
  for (uint32_t i = 0; r->ok() && i < g; ++i) {
    auto component = DecodeGaussian(r);
    if (!component.ok()) return component.status();
    if (!components.empty() &&
        component.value().dimension() != components[0].dimension()) {
      return Status::InvalidArgument(
          "artifact: gmm component " + std::to_string(i) + " has dimension " +
          std::to_string(component.value().dimension()) + ", want " +
          std::to_string(components[0].dimension()));
    }
    components.push_back(std::move(component).value());
  }
  if (!r->ok()) return r->status();
  return Gmm::FromParts(std::move(weights), std::move(components));
}

void EncodeODistribution(const ODistribution& o, ByteWriter* w) {
  w->F64(o.pi());
  EncodeGmm(o.m_distribution(), w);
  EncodeGmm(o.n_distribution(), w);
}

Result<ODistribution> DecodeODistribution(ByteReader* r) {
  double pi = r->F64();
  if (r->ok() && !(pi >= 0.0 && pi <= 1.0)) {
    r->Fail("o-distribution pi = " + std::to_string(pi) +
            " outside [0, 1]");
  }
  auto m = DecodeGmm(r);
  if (!m.ok()) return m.status();
  auto n = DecodeGmm(r);
  if (!n.ok()) return n.status();
  if (m.value().dimension() != n.value().dimension()) {
    return Status::InvalidArgument(
        "artifact: o-distribution M dimension " +
        std::to_string(m.value().dimension()) + " != N dimension " +
        std::to_string(n.value().dimension()));
  }
  return ODistribution(pi, std::move(m).value(), std::move(n).value());
}

// --- neural models -----------------------------------------------------

void EncodeParams(const std::vector<nn::TensorPtr>& params, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(params.size()));
  for (const auto& p : params) {
    w->U32(static_cast<uint32_t>(p->rows()));
    w->U32(static_cast<uint32_t>(p->cols()));
    w->F32Vec(p->value());
  }
}

Status DecodeParamsInto(ByteReader* r,
                        const std::vector<nn::TensorPtr>& params,
                        const std::string& what) {
  uint32_t count = r->U32();
  if (r->ok() && count != params.size()) {
    r->Fail(what + " has " + std::to_string(count) +
            " parameter tensors, this build expects " +
            std::to_string(params.size()));
  }
  for (size_t i = 0; r->ok() && i < params.size(); ++i) {
    uint32_t rows = r->U32();
    uint32_t cols = r->U32();
    std::vector<float> value = r->F32Vec();
    if (!r->ok()) break;
    if (rows != params[i]->rows() || cols != params[i]->cols() ||
        value.size() != params[i]->value().size()) {
      r->Fail(what + " parameter " + std::to_string(i) + " is " +
              std::to_string(rows) + "x" + std::to_string(cols) + " (" +
              std::to_string(value.size()) + " values), this build expects " +
              std::to_string(params[i]->rows()) + "x" +
              std::to_string(params[i]->cols()));
      break;
    }
    params[i]->value() = std::move(value);
  }
  return r->status();
}

void EncodeTransformer(const TransformerSeq2Seq& model, ByteWriter* w) {
  const TransformerConfig& c = model.config();
  w->I32(c.vocab_size);
  w->I32(c.d_model);
  w->I32(c.num_heads);
  w->I32(c.num_layers);
  w->I32(c.ffn_dim);
  w->I32(c.max_len);
  w->F32(c.dropout);
  EncodeParams(model.parameters(), w);
}

Result<std::unique_ptr<TransformerSeq2Seq>> DecodeTransformer(ByteReader* r) {
  // Every bound here guards a SERD_CHECK in the transformer constructor
  // (positive dims, d_model divisible by num_heads): validate first so a
  // corrupted artifact returns a Status instead of aborting the process.
  TransformerConfig c;
  c.vocab_size = static_cast<int>(BoundedU32(r, 1, kMaxVocab, "vocab_size"));
  c.d_model = static_cast<int>(BoundedU32(r, 1, kMaxModelDim, "d_model"));
  c.num_heads = static_cast<int>(BoundedU32(r, 1, 64, "num_heads"));
  c.num_layers = static_cast<int>(BoundedU32(r, 1, kMaxLayers, "num_layers"));
  c.ffn_dim = static_cast<int>(BoundedU32(r, 1, kMaxFfn, "ffn_dim"));
  c.max_len = static_cast<int>(BoundedU32(r, 1, kMaxSeqLen, "max_len"));
  c.dropout = r->F32();
  if (r->ok() && c.d_model % c.num_heads != 0) {
    r->Fail("d_model " + std::to_string(c.d_model) +
            " not divisible by num_heads " + std::to_string(c.num_heads));
  }
  if (r->ok() && !(c.dropout >= 0.0f && c.dropout < 1.0f)) {
    r->Fail("dropout " + std::to_string(c.dropout) + " outside [0, 1)");
  }
  if (!r->ok()) return r->status();
  // Built without an init draw: every weight is overwritten below.
  auto model = std::make_unique<TransformerSeq2Seq>(c, /*rng=*/nullptr);
  SERD_RETURN_IF_ERROR(
      DecodeParamsInto(r, model->parameters(), "transformer"));
  return model;
}

void EncodeEntityGan(const EntityGan& gan, ByteWriter* w) {
  const GanConfig& c = gan.config();
  w->U32(static_cast<uint32_t>(gan.feature_dim()));
  w->I32(c.latent_dim);
  w->I32(c.hidden_dim);
  w->I32(c.epochs);
  w->I32(c.batch_size);
  w->F32(c.lr);
  w->U64(c.seed);
  w->Bool(gan.trained());
  // Both networks: S2's cold start samples the generator, the rejection
  // rule scores with the discriminator — a warm start needs each.
  EncodeParams(gan.generator_parameters(), w);
  EncodeParams(gan.discriminator_parameters(), w);
}

Result<std::unique_ptr<EntityGan>> DecodeEntityGan(ByteReader* r) {
  uint32_t feature_dim = BoundedU32(r, 1, kMaxFeatureDim, "gan feature_dim");
  GanConfig c;
  c.latent_dim =
      static_cast<int>(BoundedU32(r, 1, kMaxModelDim, "gan latent_dim"));
  c.hidden_dim =
      static_cast<int>(BoundedU32(r, 1, kMaxModelDim, "gan hidden_dim"));
  c.epochs = static_cast<int>(BoundedU32(r, 0, 1000000, "gan epochs"));
  c.batch_size =
      static_cast<int>(BoundedU32(r, 1, 1000000, "gan batch_size"));
  c.lr = r->F32();
  c.seed = r->U64();
  bool trained = r->Bool();
  if (r->ok() && !std::isfinite(c.lr)) {
    r->Fail("gan learning rate is non-finite");
  }
  if (!r->ok()) return r->status();
  auto gan = std::make_unique<EntityGan>(feature_dim, c);
  SERD_RETURN_IF_ERROR(
      DecodeParamsInto(r, gan->generator_parameters(), "gan generator"));
  SERD_RETURN_IF_ERROR(DecodeParamsInto(r, gan->discriminator_parameters(),
                                        "gan discriminator"));
  if (trained) gan->MarkTrained();
  return gan;
}

// --- string synthesis bank ---------------------------------------------

void EncodeStringBank(const StringSynthesisBank& bank, ByteWriter* w) {
  w->Str(bank.vocab().NonSpecialChars());
  w->StrVec(bank.corpus());
  w->StrVec(bank.word_pool());
  const auto& models = bank.models();
  w->U32(static_cast<uint32_t>(models.size()));
  for (const auto& model : models) {
    w->Bool(model != nullptr);
    if (model != nullptr) EncodeTransformer(*model, w);
  }
  const StringBankStats& s = bank.stats();
  w->I32Vec(s.pairs_per_bucket);
  w->BoolVec(s.bucket_trained);
  w->F64(s.train_seconds);
  w->F64(s.mean_epsilon);  // DP budget spent by the original training
  w->I32(s.synth_calls);
  w->I32(s.refined_calls);
  w->I64Vec(s.bucket_hits);
  w->I64(s.fallback_calls);
}

Result<std::unique_ptr<StringSynthesisBank>> DecodeStringBank(
    ByteReader* r, StringBankOptions options, StringSimFn sim) {
  if (sim == nullptr) {
    return Status::InvalidArgument(
        "artifact: string bank decode needs a similarity function");
  }
  if (options.num_buckets <= 0 || options.num_candidates <= 0) {
    return Status::InvalidArgument(
        "artifact: string bank decode needs positive bucket/candidate "
        "options");
  }
  CharVocab vocab;
  vocab.RestoreFromChars(r->Str());
  std::vector<std::string> corpus = r->StrVec();
  std::vector<std::string> word_pool = r->StrVec();
  uint32_t k = BoundedU32(r, 1, kMaxBuckets, "string bank bucket count");
  if (!r->ok()) return r->status();
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models;
  models.reserve(k);
  for (uint32_t b = 0; r->ok() && b < k; ++b) {
    if (!r->Bool()) {
      models.push_back(nullptr);
      continue;
    }
    auto model = DecodeTransformer(r);
    if (!model.ok()) return model.status();
    models.push_back(std::move(model).value());
  }
  StringBankStats stats;
  stats.pairs_per_bucket = r->I32Vec();
  stats.bucket_trained = r->BoolVec();
  stats.train_seconds = r->F64();
  stats.mean_epsilon = r->F64();
  stats.synth_calls = r->I32();
  stats.refined_calls = r->I32();
  stats.bucket_hits = r->I64Vec();
  stats.fallback_calls = r->I64();
  if (!r->ok()) return r->status();
  // The artifact's bucket count is authoritative; RestoreTrained also
  // cross-checks the stats vectors and per-model vocab sizes.
  auto bank =
      std::make_unique<StringSynthesisBank>(std::move(options), std::move(sim));
  SERD_RETURN_IF_ERROR(bank->RestoreTrained(
      std::move(vocab), std::move(corpus), std::move(word_pool),
      std::move(models), std::move(stats)));
  return bank;
}

void EncodeKeepCounts(const StringSynthesisBank& bank, ByteWriter* w) {
  w->U8(kKeepTagFp32);
  w->U32(static_cast<uint32_t>(bank.keep_counts().size()));
  for (const KeepCount& c : bank.keep_counts()) {
    w->I32(c.decoded);
    w->I32(c.kept);
  }
}

Status DecodeKeepCountsInto(ByteReader* r, StringSynthesisBank* bank) {
  uint8_t tag = r->U8();
  if (r->ok() && tag != kKeepTagFp32 && tag != kKeepTagInt8) {
    r->Fail("keep measurement precision tag " + std::to_string(tag) +
            " unknown (want 0 or 2)");
  }
  uint32_t k = BoundedU32(r, 0, kMaxBuckets, "keep count bucket count");
  std::vector<KeepCount> counts(r->ok() ? k : 0);
  for (KeepCount& c : counts) {
    c.decoded = r->I32();
    c.kept = r->I32();
  }
  if (!r->ok()) return r->status();
  Status set = bank->SetKeepCounts(std::move(counts));
  if (!set.ok()) return Status::InvalidArgument("artifact: " + set.message());
  return Status::OK();
}

}  // namespace serd::artifact
