// SaveModels/LoadModels: the SerdSynthesizer face of the artifact store
// (DESIGN.md Section 5g). Kept out of serd.cc so the synthesis pipeline
// and the serialization concerns stay separately readable.

#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact_file.h"
#include "artifact/model_codec.h"
#include "common/timer.h"
#include "core/serd.h"
#include "text/qgram.h"

namespace serd {

/// Buckets a load failure for the artifact.load_fail_<cause> counters and
/// the CLI exit-code mapping, so a manifest shows *why* warm starts are
/// missing (stale format version vs. bit rot vs. a schema change) without
/// log archaeology.
const char* ArtifactLoadFailureCause(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
      return "io";  // missing/unreadable file
    case StatusCode::kFailedPrecondition:
      return "version";  // format version from a different build lineage
    case StatusCode::kNotFound:
      return "missing_section";
    default:
      break;
  }
  const std::string& m = s.message();
  if (m.find("CRC") != std::string::npos) return "crc";
  if (m.find("schema") != std::string::npos) return "schema";
  if (m.find("magic") != std::string::npos ||
      m.find("truncated") != std::string::npos ||
      m.find("section table") != std::string::npos) {
    return "format";
  }
  return "decode";  // structurally valid bytes, semantically rejected
}

int ArtifactLoadExitCode(const Status& status) {
  if (status.ok()) return 0;
  const std::string cause = ArtifactLoadFailureCause(status);
  if (cause == "io") return 3;
  if (cause == "crc" || cause == "format" || cause == "missing_section") {
    return 4;
  }
  if (cause == "schema") return 5;
  if (cause == "version") return 6;
  return 7;  // "decode"
}

namespace {

/// Consumes the remainder check of a section reader: every section must be
/// read exactly to its end (trailing bytes mean writer/reader disagree).
Status FinishSection(const artifact::ByteReader& r, const char* section) {
  Status s = r.Finish();
  if (s.ok()) return s;
  return Status(s.code(),
                s.message() + " (in section '" + std::string(section) + "')");
}

}  // namespace

Status SerdSynthesizer::SaveModels(const std::string& dir) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "SaveModels() requires a successful Fit()");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create model directory '" + dir +
                           "': " + ec.message());
  }

  const Schema& schema = spec_.schema();
  artifact::ArtifactWriter writer;

  // meta: schema fingerprint (the load-time compatibility gate) plus the
  // provenance of the training run — notably the DP epsilon already spent,
  // which a warm start inherits instead of re-spending.
  artifact::ByteWriter* meta = writer.AddSection("meta");
  meta->U32(static_cast<uint32_t>(schema.num_columns()));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    meta->Str(schema.column(c).name);
    meta->U8(static_cast<uint8_t>(schema.column(c).type));
  }
  meta->F64(report_.mean_bank_epsilon);
  meta->I32(report_.m_components);
  meta->I32(report_.n_components);
  meta->U64(options_.seed);
  meta->F64(source_offline_seconds_);

  artifact::EncodeODistribution(o_real_, writer.AddSection("o_real"));

  artifact::ByteWriter* banks = writer.AddSection("banks");
  banks->U32(static_cast<uint32_t>(banks_.size()));
  for (const auto& bank : banks_) {
    banks->Bool(bank != nullptr);
    if (bank != nullptr) artifact::EncodeStringBank(*bank, banks);
  }

  artifact::EncodeEntityGan(*gan_, writer.AddSection("gan"));

  artifact::ByteWriter* pools = writer.AddSection("pools");
  pools->U32(static_cast<uint32_t>(decode_pools_.size()));
  for (const auto& pool : decode_pools_) pools->StrVec(pool);

  // gate: each bank's fit-time keep measurement, which decides the
  // buckets that decode. Artifacts without the section (older writers)
  // load with every trained bucket decoding. DESIGN.md §5g.
  artifact::ByteWriter* gate = writer.AddSection("gate");
  gate->U32(static_cast<uint32_t>(banks_.size()));
  for (const auto& bank : banks_) {
    gate->Bool(bank != nullptr);
    if (bank != nullptr) artifact::EncodeKeepCounts(*bank, gate);
  }

  const std::string path = dir + "/" + kModelFileName;
  Status written = writer.WriteFile(path);
  if (!written.ok()) {
    obs::Inc(obs::GetCounter(metrics_.get(), "artifact.save_fail"));
    return written;
  }
  obs::Inc(obs::GetCounter(metrics_.get(), "artifact.save_ok"));
  if (metrics_ != nullptr) {
    std::error_code size_ec;
    auto bytes = std::filesystem::file_size(path, size_ec);
    if (!size_ec) {
      metrics_->gauge("artifact.file_bytes")
          ->Set(static_cast<double>(bytes));
    }
  }
  return Status::OK();
}

Status SerdSynthesizer::LoadModels(const std::string& dir) {
  WallTimer timer;
  auto fail = [this](Status st) {
    obs::Inc(obs::GetCounter(metrics_.get(), "artifact.load_fail"));
    obs::Inc(obs::GetCounter(
        metrics_.get(),
        std::string("artifact.load_fail_") + ArtifactLoadFailureCause(st)));
    return st;
  };

  auto reader_or = artifact::ArtifactReader::Open(dir + "/" + kModelFileName);
  if (!reader_or.ok()) return fail(reader_or.status());
  const artifact::ArtifactReader& reader = reader_or.value();
  const Schema& schema = spec_.schema();

  // --- meta: the schema fingerprint gates everything else. ---
  auto meta_or = reader.Section("meta");
  if (!meta_or.ok()) return fail(meta_or.status());
  artifact::ByteReader meta = std::move(meta_or).value();
  uint32_t ncols = meta.U32();
  if (meta.ok() && ncols != schema.num_columns()) {
    return fail(Status::InvalidArgument(
        "artifact schema mismatch: " + std::to_string(ncols) +
        " columns in artifact, " + std::to_string(schema.num_columns()) +
        " in dataset"));
  }
  for (size_t c = 0; meta.ok() && c < schema.num_columns(); ++c) {
    std::string name = meta.Str();
    uint8_t type = meta.U8();
    if (!meta.ok()) break;
    if (name != schema.column(c).name ||
        type != static_cast<uint8_t>(schema.column(c).type)) {
      return fail(Status::InvalidArgument(
          "artifact schema mismatch at column " + std::to_string(c) +
          ": artifact has '" + name + "' (type " + std::to_string(type) +
          "), dataset has '" + schema.column(c).name + "' (" +
          ColumnTypeName(schema.column(c).type) + ")"));
    }
  }
  double src_epsilon = meta.F64();
  int m_components = meta.I32();
  int n_components = meta.I32();
  uint64_t src_seed = meta.U64();
  double src_offline_seconds = meta.F64();
  if (!meta.ok()) return fail(meta.status());
  if (Status s = FinishSection(meta, "meta"); !s.ok()) return fail(s);
  if (m_components < 0 || m_components > 256 || n_components < 0 ||
      n_components > 256) {
    return fail(Status::InvalidArgument(
        "artifact meta has implausible component counts " +
        std::to_string(m_components) + "/" + std::to_string(n_components)));
  }

  // Everything below decodes into locals; members are only assigned after
  // the whole artifact validated, so a failure leaves this synthesizer
  // exactly as it was (fitted or not).

  // --- o_real ---
  auto oreal_or = reader.Section("o_real");
  if (!oreal_or.ok()) return fail(oreal_or.status());
  artifact::ByteReader oreal_reader = std::move(oreal_or).value();
  auto o_real = artifact::DecodeODistribution(&oreal_reader);
  if (!o_real.ok()) return fail(o_real.status());
  if (Status s = FinishSection(oreal_reader, "o_real"); !s.ok()) {
    return fail(s);
  }
  if (o_real.value().dimension() != schema.num_columns()) {
    return fail(Status::InvalidArgument(
        "artifact schema mismatch: o-distribution dimension " +
        std::to_string(o_real.value().dimension()) + " != column count " +
        std::to_string(schema.num_columns())));
  }

  // --- string banks (one per text column, same layout Fit() builds) ---
  auto banks_or = reader.Section("banks");
  if (!banks_or.ok()) return fail(banks_or.status());
  artifact::ByteReader banks_reader = std::move(banks_or).value();
  uint32_t bank_cols = banks_reader.U32();
  if (banks_reader.ok() && bank_cols != schema.num_columns()) {
    return fail(Status::InvalidArgument(
        "artifact schema mismatch: banks section covers " +
        std::to_string(bank_cols) + " columns, dataset has " +
        std::to_string(schema.num_columns())));
  }
  std::vector<std::unique_ptr<StringSynthesisBank>> banks(
      schema.num_columns());
  for (size_t c = 0; banks_reader.ok() && c < schema.num_columns(); ++c) {
    bool present = banks_reader.Bool();
    if (!banks_reader.ok()) break;
    const bool is_text = schema.column(c).type == ColumnType::kText;
    if (present != is_text) {
      return fail(Status::InvalidArgument(
          "artifact schema mismatch: column " + std::to_string(c) + " ('" +
          schema.column(c).name + "') " +
          (present ? "has a string bank but is not a text column"
                   : "is a text column but has no string bank")));
    }
    if (!present) continue;
    // Mirror Fit(): same per-column training seed and shared pool/metrics,
    // so a saved-then-loaded bank is indistinguishable from a trained one.
    StringBankOptions bank_opts = options_.string_bank;
    bank_opts.train.seed = options_.seed + 7919ULL * (c + 1);
    bank_opts.train.pool = pool_.get();
    // The text-column similarity Fit() builds its banks with.
    auto bank = artifact::DecodeStringBank(&banks_reader, bank_opts,
                                           QgramJaccardSim{});
    if (!bank.ok()) return fail(bank.status());
    banks[c] = std::move(bank).value();
  }
  if (!banks_reader.ok()) return fail(banks_reader.status());
  if (Status s = FinishSection(banks_reader, "banks"); !s.ok()) {
    return fail(s);
  }

  // --- GAN + encoder (encoder is stateless: rebuilt from the spec) ---
  auto gan_or = reader.Section("gan");
  if (!gan_or.ok()) return fail(gan_or.status());
  artifact::ByteReader gan_reader = std::move(gan_or).value();
  auto gan = artifact::DecodeEntityGan(&gan_reader);
  if (!gan.ok()) return fail(gan.status());
  if (Status s = FinishSection(gan_reader, "gan"); !s.ok()) return fail(s);
  auto encoder = std::make_unique<EntityEncoder>(spec_, options_.encoder);
  if (gan.value()->feature_dim() != encoder->feature_dim()) {
    return fail(Status::InvalidArgument(
        "artifact schema mismatch: GAN feature_dim " +
        std::to_string(gan.value()->feature_dim()) +
        " but this dataset/encoder configuration produces " +
        std::to_string(encoder->feature_dim())));
  }

  // --- cold-start decode pools ---
  auto pools_or = reader.Section("pools");
  if (!pools_or.ok()) return fail(pools_or.status());
  artifact::ByteReader pools_reader = std::move(pools_or).value();
  uint32_t pool_cols = pools_reader.U32();
  if (pools_reader.ok() && pool_cols != schema.num_columns()) {
    return fail(Status::InvalidArgument(
        "artifact schema mismatch: pools section covers " +
        std::to_string(pool_cols) + " columns, dataset has " +
        std::to_string(schema.num_columns())));
  }
  std::vector<std::vector<std::string>> pools(schema.num_columns());
  for (size_t c = 0; pools_reader.ok() && c < schema.num_columns(); ++c) {
    pools[c] = pools_reader.StrVec();
  }
  if (!pools_reader.ok()) return fail(pools_reader.status());
  if (Status s = FinishSection(pools_reader, "pools"); !s.ok()) {
    return fail(s);
  }
  for (size_t c = 0; c < pools.size(); ++c) {
    if (pools[c].empty()) {
      return fail(Status::InvalidArgument(
          "artifact decode pool for column " + std::to_string(c) +
          " is empty (Fit() never saves an empty pool)"));
    }
  }

  // --- keep measurements (optional section: absent from older
  // artifacts, whose banks then decode in every trained bucket) ---
  if (reader.Has("gate")) {
    auto gate_or = reader.Section("gate");
    if (!gate_or.ok()) return fail(gate_or.status());
    artifact::ByteReader gate_reader = std::move(gate_or).value();
    uint32_t gate_cols = gate_reader.U32();
    if (gate_reader.ok() && gate_cols != schema.num_columns()) {
      return fail(Status::InvalidArgument(
          "artifact schema mismatch: gate section covers " +
          std::to_string(gate_cols) + " columns, dataset has " +
          std::to_string(schema.num_columns())));
    }
    for (size_t c = 0; gate_reader.ok() && c < schema.num_columns(); ++c) {
      bool present = gate_reader.Bool();
      if (!gate_reader.ok()) break;
      if (present != (banks[c] != nullptr)) {
        return fail(Status::InvalidArgument(
            "artifact gate section disagrees with the banks section at "
            "column " +
            std::to_string(c)));
      }
      if (!present) continue;
      Status decoded =
          artifact::DecodeKeepCountsInto(&gate_reader, banks[c].get());
      if (!decoded.ok()) return fail(decoded);
    }
    if (!gate_reader.ok()) return fail(gate_reader.status());
    if (Status s = FinishSection(gate_reader, "gate"); !s.ok()) {
      return fail(s);
    }
  }

  // --- commit: from here on the warm start is indistinguishable from a
  // freshly trained Fit() with the same options and seed. The lock makes
  // the commit atomic against concurrent RunManifestJson() snapshots
  // (everything above worked on locals, so a failed load never holds the
  // lock or touches members). ---
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    o_real_ = std::move(o_real).value();
    banks_ = std::move(banks);
    encoder_ = std::move(encoder);
    gan_ = std::move(gan).value();
    decode_pools_ = std::move(pools);
    report_.m_components = m_components;
    report_.n_components = n_components;
    report_.mean_bank_epsilon = src_epsilon;  // budget spent at training time
    report_.warm_started = true;
    report_.offline_seconds = timer.Seconds();  // load, not training cost
    report_ = OfflineReportLocked();  // a prior run's figures are stale now
    source_offline_seconds_ = src_offline_seconds;
    fitted_ = true;
  }

  obs::Inc(obs::GetCounter(metrics_.get(), "artifact.load_ok"));
  if (metrics_ != nullptr) {
    metrics_->gauge("artifact.source_seed")
        ->Set(static_cast<double>(src_seed));
    metrics_->gauge("artifact.source_offline_seconds")
        ->Set(src_offline_seconds);
    metrics_->gauge("artifact.load_seconds")->Set(report_.offline_seconds);
  }
  return Status::OK();
}

}  // namespace serd
