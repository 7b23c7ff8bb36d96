// Probes a traced run makes on seeded replay inputs, and small helpers
// for the run's checks.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>

#include "bench.h"
#include "core/serd.h"
#include "serve/wire.h"

namespace perfbench {

/// Milliseconds per StringSynthesisBank::Synthesize on the first text
/// column's bank, decoded from the artifact in `model_dir`, over a seeded
/// replay of (source value, target similarity) pairs drawn from `real`.
serd::Result<double> BankSynthesizeMs(const std::string& model_dir,
                                      const serd::SimilaritySpec& spec,
                                      const serd::ERDataset& real,
                                      uint64_t seed);

/// Milliseconds per EstimateJsd at the jobs' jsd_samples, between
/// `o_real` and seeded perturbations of its match share.
double EstimateJsdMs(const serd::ODistribution& o_real, uint64_t seed);

/// Median milliseconds of `health` round trips on one persistent
/// connection (the first round trip is not counted).
double HealthRttMs(serd::serve::ServeClient* client);

/// Peak resident set of the process in MiB.
double PeakRssMb();

/// True when the two release directories hold byte-identical files;
/// otherwise `why` names the first file that differs.
bool SameRelease(const std::string& dir_a, const std::string& dir_b,
                 std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
