#ifndef SERD_DATAGEN_GENERATORS_H_
#define SERD_DATAGEN_GENERATORS_H_

#include <string>
#include <vector>

#include "data/er_dataset.h"

namespace serd::datagen {

/// The four benchmark datasets of the paper (Table II). The real
/// downloads are unavailable in this environment, so these generators
/// produce structurally faithful analogs: same schemas (column names and
/// types), same default sizes and match counts, and the same styles of
/// cross-table variation (author reordering/initials, venue
/// full-name/abbreviation, typos, price/date jitter). See DESIGN.md.
enum class DatasetKind {
  kDblpAcm,
  kRestaurant,
  kWalmartAmazon,
  kItunesAmazon,
};

const char* DatasetKindName(DatasetKind kind);

/// Parses the CLI/wire spelling of a dataset kind ("dblp-acm",
/// "restaurant", "walmart-amazon", "itunes-amazon"); returns false and
/// leaves `kind` untouched on an unknown name. Shared by serd_cli and the
/// serving front end so both accept the same vocabulary.
bool ParseDatasetKind(const std::string& name, DatasetKind* kind);

/// The paper's Table II statistics for `kind`.
struct PaperStats {
  size_t a_size;
  size_t b_size;
  size_t matches;
  int num_columns;
};
PaperStats PaperSizes(DatasetKind kind);

struct GenOptions {
  uint64_t seed = 42;
  /// Multiplies the paper's table sizes/match counts; must be positive and
  /// finite (Generate checks). 1.0 reproduces the Table II sizes; the
  /// experiment harnesses default to ~0.1 so a full pipeline runs in
  /// CPU-minutes (documented in EXPERIMENTS.md).
  double scale = 1.0;
};

/// Generates the dataset analog. Deterministic in (kind, options).
ERDataset Generate(DatasetKind kind, const GenOptions& options);

/// Background strings for a text column of `kind` ("title", "authors",
/// "name", ...). Uses only the background word pools, which are disjoint
/// from the active pools the datasets are built from (paper Figure 2:
/// background data must not overlap the active domain).
std::vector<std::string> BackgroundCorpus(DatasetKind kind,
                                          const std::string& column, size_t n,
                                          uint64_t seed);

/// Full background entities (same schema as `kind`) for GAN training and
/// cold-start decode pools.
Table BackgroundEntities(DatasetKind kind, size_t n, uint64_t seed);

/// The background data SERD fits against for a dataset of `kind`
/// generated at `seed`: 100 entities (BackgroundEntities at seed * 7 + 1)
/// and one corpus of 120 strings per text column, in schema order (the
/// i-th text column's at seed * 31 + i). serd_cli, the serving front end
/// and the benches all fit against it, which is what makes a served job
/// and a serd_cli release of one seed byte-identical.
struct Background {
  std::vector<std::vector<std::string>> corpora;
  Table entities;
};
Background StandardBackground(DatasetKind kind, uint64_t seed);

}  // namespace serd::datagen

#endif  // SERD_DATAGEN_GENERATORS_H_
