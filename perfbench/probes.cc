#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iterator>

#include "artifact/artifact_file.h"
#include "artifact/model_codec.h"
#include "common/rng.h"
#include "gmm/o_distribution.h"
#include "probes.h"
#include "serve/server.h"

namespace perfbench {

using serd::Result;
using serd::Rng;

namespace {

/// Replayed calls per probe.
constexpr int kBankProbeCalls = 96;
constexpr int kJsdProbeCalls = 48;
constexpr int kHealthProbeCalls = 21;

}  // namespace

Result<double> BankSynthesizeMs(const std::string& model_dir,
                                const serd::SimilaritySpec& spec,
                                const serd::ERDataset& real, uint64_t seed) {
  auto reader = serd::artifact::ArtifactReader::Open(
      model_dir + "/" + serd::SerdSynthesizer::kModelFileName);
  if (!reader.ok()) return reader.status();
  auto banks = reader->Section("banks");
  if (!banks.ok()) return banks.status();
  // The section holds one presence flag per column, each followed by the
  // column's bank; the first text column's bank is decoded.
  serd::artifact::ByteReader& r = *banks;
  const uint32_t columns = r.U32();
  std::unique_ptr<serd::StringSynthesisBank> bank;
  size_t column = 0;
  for (; r.ok() && column < columns && bank == nullptr; ++column) {
    if (!r.Bool()) continue;
    auto sim = [&spec, column](const std::string& a, const std::string& b) {
      return spec.ColumnSimilarity(column, a, b);
    };
    auto decoded = serd::artifact::DecodeStringBank(
        &r, serd::serve::DefaultJobOptions().string_bank, sim);
    if (!decoded.ok()) return decoded.status();
    bank = std::move(decoded).value();
  }
  if (bank == nullptr) return serd::Status::NotFound("no string bank");
  const size_t col = column - 1;

  Rng replay(seed);
  std::vector<std::pair<std::string, double>> calls;
  for (int i = 0; i < kBankProbeCalls; ++i) {
    const auto& row = real.a.row(replay.UniformInt(real.a.size()));
    calls.emplace_back(row.value(col), replay.Uniform(0.3, 1.0));
  }
  Rng rng(seed ^ 0x5eedULL);
  Span span("probe.bank_synthesize");
  for (const auto& [source, target] : calls) {
    bank->Synthesize(source, target, &rng);
  }
  return span.Stop() * 1e3 / kBankProbeCalls;
}

double EstimateJsdMs(const serd::ODistribution& o_real, uint64_t seed) {
  Rng replay(seed);
  std::vector<serd::ODistribution> others;
  for (int i = 0; i < kJsdProbeCalls; ++i) {
    const double pi = std::clamp(o_real.pi() * replay.Uniform(0.8, 1.2),
                                 0.01, 0.99);
    others.emplace_back(pi, o_real.m_distribution(), o_real.n_distribution());
  }
  const int samples = serd::serve::DefaultJobOptions().jsd_samples;
  Span span("probe.estimate_jsd");
  for (int i = 0; i < kJsdProbeCalls; ++i) {
    serd::EstimateJsd(others[i], o_real, samples, seed + i);
  }
  return span.Stop() * 1e3 / kJsdProbeCalls;
}

double HealthRttMs(serd::serve::ServeClient* client) {
  serd::obs::Json request = serd::obs::Json::Object();
  request.Set("verb", "health");
  std::vector<double> ms;
  for (int i = 0; i < kHealthProbeCalls; ++i) {
    Span span("probe.health");
    if (!client->Call(request).ok()) break;
    if (i > 0) ms.push_back(span.Stop() * 1e3);
  }
  return Median(ms);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameRelease(const std::string& dir_a, const std::string& dir_b,
                 std::string* why) {
  for (const char* name :
       {"tableA.csv", "tableB.csv", "matches.csv", "schema.csv"}) {
    std::ifstream a(dir_a + "/" + name, std::ios::binary);
    std::ifstream b(dir_b + "/" + name, std::ios::binary);
    if (!a || !b) {
      *why = std::string(name) + " missing";
      return false;
    }
    const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
    const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
    if (bytes_a != bytes_b) {
      *why = std::string(name) + " differs";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
