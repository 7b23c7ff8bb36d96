#include "text/perturb.h"

#include <cmath>
#include <string_view>

#include "common/strings.h"
#include "text/qgram.h"

namespace serd {
namespace {

constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";

constexpr PerturbOp kOps[] = {
    PerturbOp::kDropWord,       PerturbOp::kSwapWords,
    PerturbOp::kAbbreviateWord, PerturbOp::kTypo,
    PerturbOp::kInsertWord,     PerturbOp::kReplaceWord,
    PerturbOp::kTruncate,       PerturbOp::kDuplicateWord,
};

/// Writes parts into a buffer with one space between consecutive parts,
/// as Join(parts, " ") does: an empty part still gets its separators.
class Joiner {
 public:
  explicit Joiner(std::string* out) : out_(out) { out_->clear(); }
  void Add(std::string_view part) {
    if (!first_) out_->push_back(' ');
    first_ = false;
    out_->append(part);
  }

 private:
  std::string* out_;
  bool first_ = true;
};

/// One character substitution, insertion or deletion of the raw string.
void WriteTypo(std::string_view s, Rng* rng, std::string* out) {
  if (s.empty()) {
    out->assign(1, kLetters[rng->UniformInt(26u)]);
    return;
  }
  out->assign(s);
  switch (rng->UniformInt(3u)) {
    case 0: {  // substitute
      size_t i = rng->UniformInt(out->size());
      (*out)[i] = kLetters[rng->UniformInt(26u)];
      break;
    }
    case 1: {  // insert
      size_t i = rng->UniformInt(out->size() + 1);
      out->insert(out->begin() + i, kLetters[rng->UniformInt(26u)]);
      break;
    }
    default: {  // delete
      size_t i = rng->UniformInt(out->size());
      out->erase(out->begin() + i);
      break;
    }
  }
}

/// The one implementation of the ops: writes `op` applied to `s`, whose
/// words are `words` (SplitWhitespace(s, &words)), into `out`, which must
/// not alias `s`. Each op takes its draws in the order of a
/// split-mutate-Join rewrite of the word list; see DESIGN.md §5h.
void WritePerturbation(std::string_view s,
                       const std::vector<std::string_view>& words,
                       PerturbOp op, const std::vector<std::string>& pool,
                       Rng* rng, std::string* out) {
  const size_t n = words.size();
  Joiner join(out);
  switch (op) {
    case PerturbOp::kDropWord: {
      if (n < 2) return WriteTypo(s, rng, out);
      const size_t drop = rng->UniformInt(n);
      for (size_t k = 0; k < n; ++k) {
        if (k != drop) join.Add(words[k]);
      }
      return;
    }
    case PerturbOp::kSwapWords: {
      if (n < 2) return WriteTypo(s, rng, out);
      const size_t i = rng->UniformInt(n);
      const size_t j = rng->UniformInt(n);
      for (size_t k = 0; k < n; ++k) {
        join.Add(words[k == i ? j : k == j ? i : k]);
      }
      return;
    }
    case PerturbOp::kAbbreviateWord: {
      // Abbreviate the first un-abbreviated word of length >= 3.
      for (size_t a = 0; a < n; ++a) {
        const std::string_view w = words[a];
        if (w.size() < 3 || w.back() == '.') continue;
        const char initial[2] = {w[0], '.'};
        for (size_t k = 0; k < n; ++k) {
          join.Add(k == a ? std::string_view(initial, 2) : words[k]);
        }
        return;
      }
      return WriteTypo(s, rng, out);
    }
    case PerturbOp::kTypo:
      return WriteTypo(s, rng, out);
    case PerturbOp::kInsertWord: {
      if (pool.empty()) return WriteTypo(s, rng, out);
      const std::string& w = pool[rng->UniformInt(pool.size())];
      const size_t at = rng->UniformInt(n + 1);
      for (size_t k = 0; k <= n; ++k) {
        if (k == at) join.Add(w);
        if (k < n) join.Add(words[k]);
      }
      return;
    }
    case PerturbOp::kReplaceWord: {
      if (pool.empty() || n == 0) return WriteTypo(s, rng, out);
      // The pool index is drawn first: the rewrite is
      // words[UniformInt(n)] = pool[UniformInt(|pool|)], and an
      // assignment evaluates its right operand first.
      const std::string& w = pool[rng->UniformInt(pool.size())];
      const size_t at = rng->UniformInt(n);
      for (size_t k = 0; k < n; ++k) {
        join.Add(k == at ? std::string_view(w) : words[k]);
      }
      return;
    }
    case PerturbOp::kTruncate: {
      if (n < 2) return WriteTypo(s, rng, out);
      const size_t keep = 1 + rng->UniformInt(n - 1);
      for (size_t k = 0; k < keep; ++k) join.Add(words[k]);
      return;
    }
    case PerturbOp::kDuplicateWord: {
      if (n == 0) return WriteTypo(s, rng, out);
      const size_t at = rng->UniformInt(n);
      for (size_t k = 0; k < n; ++k) {
        join.Add(words[k]);
        if (k == at) join.Add(words[k]);
      }
      return;
    }
  }
  out->assign(s);
}

}  // namespace

std::string ApplyPerturbation(const std::string& s, PerturbOp op,
                              const std::vector<std::string>& pool,
                              Rng* rng) {
  std::vector<std::string_view> words;
  SplitWhitespace(s, &words);
  std::string out;
  WritePerturbation(s, words, op, pool, rng, &out);
  return out;
}

std::string RandomPerturbation(const std::string& s,
                               const std::vector<std::string>& pool,
                               Rng* rng) {
  return ApplyPerturbation(s, kOps[rng->UniformInt(8u)], pool, rng);
}

namespace {

/// The climb over an opaque sim(reference, candidate): one
/// RandomPerturbation per proposal. The q-gram climb below must walk the
/// same search.
std::string PairwiseClimb(
    const std::string& reference, const std::string& start, double target,
    const std::function<double(const std::string&, const std::string&)>& sim,
    const std::vector<std::string>& pool, Rng* rng,
    const HillClimbOptions& options, long* proposals) {
  std::string current = start;
  double current_err = std::fabs(sim(reference, current) - target);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (current_err <= options.tolerance) break;
    std::string best = current;
    double best_err = current_err;
    for (int p = 0; p < options.proposals_per_iter; ++p) {
      ++*proposals;
      std::string candidate = RandomPerturbation(current, pool, rng);
      if (candidate.empty()) continue;
      double err = std::fabs(sim(reference, candidate) - target);
      if (err < best_err) {
        best_err = err;
        best = std::move(candidate);
      }
    }
    if (best_err < current_err) {
      current = std::move(best);
      current_err = best_err;
    }
  }
  return current;
}

/// The climb for QgramJaccardSim: the reference's profile is built once,
/// `current` is split once per iteration, and proposals are written into
/// buffers the climb owns, so a proposal allocates nothing once the
/// buffers have grown.
std::string QgramClimb(const std::string& reference, const std::string& start,
                       double target, int q,
                       const std::vector<std::string>& pool, Rng* rng,
                       const HillClimbOptions& options, long* proposals) {
  QgramJaccardProfile profile(reference, q);
  std::string current = start;
  double current_err = std::fabs(profile.Jaccard(current) - target);
  std::vector<std::string_view> words;  // views of `current`
  std::string candidate, best;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (current_err <= options.tolerance) break;
    SplitWhitespace(current, &words);
    double best_err = current_err;
    for (int p = 0; p < options.proposals_per_iter; ++p) {
      ++*proposals;
      const PerturbOp op = kOps[rng->UniformInt(8u)];
      WritePerturbation(current, words, op, pool, rng, &candidate);
      if (candidate.empty()) continue;
      const double err = std::fabs(profile.Jaccard(candidate) - target);
      if (err < best_err) {
        best_err = err;
        best.swap(candidate);
      }
    }
    if (best_err < current_err) {
      current.swap(best);
      current_err = best_err;
    }
  }
  return current;
}

}  // namespace

std::string HillClimbToSimilarity(
    const std::string& reference, const std::string& start, double target,
    const std::function<double(const std::string&, const std::string&)>& sim,
    const std::vector<std::string>& pool, Rng* rng,
    const HillClimbOptions& options, long* proposals) {
  long local = 0;
  if (proposals == nullptr) proposals = &local;
  if (const auto* qgram = sim.target<QgramJaccardSim>()) {
    return QgramClimb(reference, start, target, qgram->q, pool, rng, options,
                      proposals);
  }
  return PairwiseClimb(reference, start, target, sim, pool, rng, options,
                       proposals);
}

}  // namespace serd
