#include "text/perturb.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "text/qgram.h"

namespace serd {
namespace {

constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";

std::string JoinWords(const std::vector<std::string>& words) {
  return Join(words, " ");
}

std::string TypoOnce(const std::string& s, Rng* rng) {
  if (s.empty()) {
    return std::string(1, kLetters[rng->UniformInt(26u)]);
  }
  std::string out = s;
  switch (rng->UniformInt(3u)) {
    case 0: {  // substitute
      size_t i = rng->UniformInt(out.size());
      out[i] = kLetters[rng->UniformInt(26u)];
      break;
    }
    case 1: {  // insert
      size_t i = rng->UniformInt(out.size() + 1);
      out.insert(out.begin() + i, kLetters[rng->UniformInt(26u)]);
      break;
    }
    default: {  // delete
      size_t i = rng->UniformInt(out.size());
      out.erase(out.begin() + i);
      break;
    }
  }
  return out;
}

}  // namespace

std::string ApplyPerturbation(const std::string& s, PerturbOp op,
                              const std::vector<std::string>& pool,
                              Rng* rng) {
  std::vector<std::string> words = SplitWhitespace(s);
  switch (op) {
    case PerturbOp::kDropWord: {
      if (words.size() < 2) return TypoOnce(s, rng);
      words.erase(words.begin() + rng->UniformInt(words.size()));
      return JoinWords(words);
    }
    case PerturbOp::kSwapWords: {
      if (words.size() < 2) return TypoOnce(s, rng);
      size_t i = rng->UniformInt(words.size());
      size_t j = rng->UniformInt(words.size());
      std::swap(words[i], words[j]);
      return JoinWords(words);
    }
    case PerturbOp::kAbbreviateWord: {
      // Abbreviate the first un-abbreviated word of length >= 3.
      for (auto& w : words) {
        if (w.size() >= 3 && w.back() != '.') {
          w = std::string(1, w[0]) + ".";
          return JoinWords(words);
        }
      }
      return TypoOnce(s, rng);
    }
    case PerturbOp::kTypo:
      return TypoOnce(s, rng);
    case PerturbOp::kInsertWord: {
      if (pool.empty()) return TypoOnce(s, rng);
      const std::string& w = pool[rng->UniformInt(pool.size())];
      size_t i = rng->UniformInt(words.size() + 1);
      words.insert(words.begin() + i, w);
      return JoinWords(words);
    }
    case PerturbOp::kReplaceWord: {
      if (pool.empty() || words.empty()) return TypoOnce(s, rng);
      words[rng->UniformInt(words.size())] =
          pool[rng->UniformInt(pool.size())];
      return JoinWords(words);
    }
    case PerturbOp::kTruncate: {
      if (words.size() < 2) return TypoOnce(s, rng);
      size_t keep = 1 + rng->UniformInt(words.size() - 1);
      words.resize(keep);
      return JoinWords(words);
    }
    case PerturbOp::kDuplicateWord: {
      if (words.empty()) return TypoOnce(s, rng);
      size_t i = rng->UniformInt(words.size());
      words.insert(words.begin() + i, words[i]);
      return JoinWords(words);
    }
  }
  return s;
}

std::string RandomPerturbation(const std::string& s,
                               const std::vector<std::string>& pool,
                               Rng* rng) {
  static constexpr PerturbOp kOps[] = {
      PerturbOp::kDropWord,   PerturbOp::kSwapWords,
      PerturbOp::kAbbreviateWord, PerturbOp::kTypo,
      PerturbOp::kInsertWord, PerturbOp::kReplaceWord,
      PerturbOp::kTruncate,   PerturbOp::kDuplicateWord,
  };
  return ApplyPerturbation(s, kOps[rng->UniformInt(8u)], pool, rng);
}

namespace {

/// The climb over `sim_to_reference(candidate)` = sim(reference,
/// candidate), templated so the q-gram path calls it inline.
template <typename SimToReference>
std::string Climb(const std::string& start, double target,
                  const SimToReference& sim_to_reference,
                  const std::vector<std::string>& pool, Rng* rng,
                  const HillClimbOptions& options) {
  std::string current = start;
  double current_err = std::fabs(sim_to_reference(current) - target);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (current_err <= options.tolerance) break;
    std::string best = current;
    double best_err = current_err;
    for (int p = 0; p < options.proposals_per_iter; ++p) {
      std::string candidate = RandomPerturbation(current, pool, rng);
      if (candidate.empty()) continue;
      double err = std::fabs(sim_to_reference(candidate) - target);
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

}  // namespace

std::string HillClimbToSimilarity(
    const std::string& reference, const std::string& start, double target,
    const std::function<double(const std::string&, const std::string&)>& sim,
    const std::vector<std::string>& pool, Rng* rng,
    const HillClimbOptions& options) {
  if (const auto* qgram = sim.target<QgramJaccardSim>()) {
    const int q = qgram->q;
    const std::vector<uint32_t> profile = HashedQgramSet(reference, q);
    return Climb(
        start, target,
        [&](const std::string& candidate) {
          return JaccardOfHashedSets(profile, HashedQgramSet(candidate, q));
        },
        pool, rng, options);
  }
  return Climb(
      start, target,
      [&](const std::string& candidate) { return sim(reference, candidate); },
      pool, rng, options);
}

}  // namespace serd
