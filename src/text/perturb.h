#ifndef SERD_TEXT_PERTURB_H_
#define SERD_TEXT_PERTURB_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace serd {

/// Single-step string edit operations shared by (a) the EMBench baseline,
/// which synthesizes entities by modifying real ones with such rules,
/// (b) background-pair augmentation for transformer training, and (c) the
/// hill-climbing refinement that nudges a synthesized string toward a
/// target similarity.
enum class PerturbOp {
  kDropWord,        ///< remove one random word
  kSwapWords,       ///< exchange two random words (e.g. author reorder)
  kAbbreviateWord,  ///< "Donald" -> "D."
  kTypo,            ///< one character substitution/insertion/deletion
  kInsertWord,      ///< insert a word from the pool
  kReplaceWord,     ///< replace a word with one from the pool
  kTruncate,        ///< drop the trailing words
  kDuplicateWord,   ///< repeat a random word
};

/// Applies `op` to `s`. Pool-based ops fall back to kTypo when `pool` is
/// empty. Returns the (possibly unchanged, for degenerate inputs) result.
/// Word ops act on the words of SplitWhitespace(s) and re-join them with
/// single spaces; kTypo acts on the raw string. The hill climb writes the
/// same ops into its own buffers with the same draws (DESIGN.md §5h).
std::string ApplyPerturbation(const std::string& s, PerturbOp op,
                              const std::vector<std::string>& pool, Rng* rng);

/// Applies one uniformly chosen op.
std::string RandomPerturbation(const std::string& s,
                               const std::vector<std::string>& pool, Rng* rng);

/// Word-level similarity-targeted local search: starting from `start`,
/// repeatedly proposes single-op mutations and keeps the one whose
/// similarity to `reference` is closest to `target`, until within
/// `tolerance` or `max_iters` proposals are spent. Used to refine
/// transformer candidates whose achieved similarity misses the sampled one
/// and to synthesize strings for buckets with too little training data.
/// When `sim` holds a QgramJaccardSim, the climb scores proposals with a
/// QgramJaccardProfile of the reference and writes them into buffers it
/// owns; the result and the draws are the same as the climb over an
/// opaque `sim`. `proposals`, when not null, is increased by the number
/// of proposals made.
struct HillClimbOptions {
  int max_iters = 60;
  int proposals_per_iter = 6;
  double tolerance = 0.02;
};

std::string HillClimbToSimilarity(
    const std::string& reference, const std::string& start, double target,
    const std::function<double(const std::string&, const std::string&)>& sim,
    const std::vector<std::string>& pool, Rng* rng,
    const HillClimbOptions& options = {}, long* proposals = nullptr);

}  // namespace serd

#endif  // SERD_TEXT_PERTURB_H_
