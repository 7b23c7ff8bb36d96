#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "text/char_vocab.h"
#include "text/edit_distance.h"
#include "text/perturb.h"
#include "text/qgram.h"
#include "text/token.h"

namespace serd {
namespace {

// ------------------------------------------------------------------ Qgram

TEST(QgramTest, BasicExtraction) {
  auto grams = QgramSet("abcd", 3);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "abc");
  EXPECT_EQ(grams[1], "bcd");
}

TEST(QgramTest, Lowercases) {
  EXPECT_EQ(QgramSet("ABC", 3), QgramSet("abc", 3));
}

TEST(QgramTest, ProfileMatchesHashedSetJaccard) {
  // Candidates of every size against one profile, so its scratch set is
  // regrown and reused; repeated grams, empty strings, q below 1.
  const std::string long_text(2500, 'a');
  const std::vector<std::string> strings = {
      "", "a", "AB", "abc", "aaaa aaaa", "abcabcabc", long_text,
      long_text + "bcd", "Data Base", "data  base\t", "caf\xc3\xa9"};
  for (int q : {0, 1, 2, 3, 5}) {
    for (const std::string& ref : strings) {
      QgramJaccardProfile profile(ref, q);
      const std::vector<uint32_t> ref_set = HashedQgramSet(ref, q);
      for (const std::string& cand : strings) {
        EXPECT_EQ(profile.Jaccard(cand),
                  JaccardOfHashedSets(ref_set, HashedQgramSet(cand, q)))
            << "q " << q << " ref '" << ref.substr(0, 12) << "' cand '"
            << cand.substr(0, 12) << "'";
      }
    }
  }
}

TEST(QgramTest, ShortStringIsSingleGram) {
  auto grams = QgramSet("ab", 3);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "ab");
}

TEST(QgramTest, EmptyString) { EXPECT_TRUE(QgramSet("", 3).empty()); }

TEST(QgramTest, Deduplicates) {
  auto grams = QgramSet("aaaa", 3);  // "aaa" twice
  EXPECT_EQ(grams.size(), 1u);
}

// ------------------------------------------------------------ HashedQgram

TEST(HashedQgramTest, SortedUniqueAndCaseInsensitive) {
  auto h = HashedQgramSet("Mississippi", 3);
  EXPECT_EQ(h, HashedQgramSet("mISSISSIPPI", 3));
  EXPECT_TRUE(std::is_sorted(h.begin(), h.end()));
  EXPECT_EQ(std::adjacent_find(h.begin(), h.end()), h.end());
  // Same number of distinct grams as the string-set representation.
  EXPECT_EQ(h.size(), QgramSet("mississippi", 3).size());
}

TEST(HashedQgramTest, ShortAndEmptyStringRules) {
  EXPECT_TRUE(HashedQgramSet("", 3).empty());
  EXPECT_EQ(HashedQgramSet("ab", 3).size(), 1u);
  // Whole-string gram: "ab" hashes the same whether q is 3 or 5.
  EXPECT_EQ(HashedQgramSet("ab", 3), HashedQgramSet("ab", 5));
}

TEST(HashedQgramTest, JaccardMatchesStringSetsOnFuzzedCorpus) {
  // The hashed profiles must reproduce the string-set Jaccard *exactly*
  // (bitwise double equality) on a fuzzed corpus: mixed case, digits,
  // spaces, punctuation, empty and shorter-than-q strings.
  Rng rng(123);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .-'&";
  auto random_string = [&](size_t max_len) {
    std::string s;
    size_t len = rng.UniformInt(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.UniformInt(alphabet.size())]);
    }
    return s;
  };
  for (int iter = 0; iter < 1000; ++iter) {
    std::string a = random_string(30);
    std::string b = rng.Bernoulli(0.5) ? random_string(30) : a;
    for (int q : {2, 3, 4}) {
      double hashed =
          JaccardOfHashedSets(HashedQgramSet(a, q), HashedQgramSet(b, q));
      double strings = JaccardOfSortedSets(QgramSet(a, q), QgramSet(b, q));
      EXPECT_DOUBLE_EQ(hashed, strings)
          << "a=\"" << a << "\" b=\"" << b << "\" q=" << q;
    }
  }
}

TEST(QgramJaccardTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(QgramJaccard("hello world", "hello world"), 1.0);
}

TEST(QgramJaccardTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(QgramJaccard("aaaa", "bbbb"), 0.0);
}

TEST(QgramJaccardTest, BothEmptyIsOne) {
  EXPECT_DOUBLE_EQ(QgramJaccard("", ""), 1.0);
}

TEST(QgramJaccardTest, OneEmptyIsZero) {
  EXPECT_DOUBLE_EQ(QgramJaccard("abc", ""), 0.0);
}

TEST(QgramJaccardTest, Symmetric) {
  EXPECT_DOUBLE_EQ(QgramJaccard("forest family", "family forest"),
                   QgramJaccard("family forest", "forest family"));
}

TEST(QgramJaccardTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(QgramJaccard("Hello", "hello"), 1.0);
}

TEST(QgramJaccardTest, InUnitInterval) {
  Rng rng(3);
  const char* samples[] = {"sigmod conference", "vldb",
                           "management of data", "icde", ""};
  for (const char* a : samples) {
    for (const char* b : samples) {
      double s = QgramJaccard(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

// ------------------------------------------------------------ Levenshtein

TEST(LevenshteinTest, ClassicCases) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("same", "same"), 0u);
}

TEST(LevenshteinTest, SymmetricProperty) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

TEST(LevenshteinTest, TriangleInequality) {
  const char* s[] = {"query", "quary", "qry", "optimization"};
  for (const char* a : s) {
    for (const char* b : s) {
      for (const char* c : s) {
        EXPECT_LE(Levenshtein(a, c), Levenshtein(a, b) + Levenshtein(b, c));
      }
    }
  }
}

TEST(NormalizedEditTest, Bounds) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "xyz"), 0.0);
}

TEST(BoundedLevenshteinTest, MatchesExactWithinBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 10), 3u);
}

TEST(BoundedLevenshteinTest, EarlyExitBeyondBound) {
  EXPECT_EQ(BoundedLevenshtein("aaaaaaaaaa", "bbbbbbbbbb", 3), 4u);
}

TEST(BoundedLevenshteinTest, LengthDifferenceShortcut) {
  EXPECT_EQ(BoundedLevenshtein("ab", "abcdefgh", 2), 3u);
}

TEST(BoundedLevenshteinTest, BandMatchesFullDistanceOnFuzzedPairs) {
  // The Ukkonen band must agree with the unbanded distance whenever that
  // distance is within the bound, and saturate to bound+1 otherwise.
  Rng rng(77);
  const char alphabet[] = "abcde";
  auto random_string = [&](size_t max_len) {
    std::string s;
    size_t len = rng.UniformInt(max_len + 1);
    for (size_t i = 0; i < len; ++i) s.push_back(alphabet[rng.UniformInt(5)]);
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_string(24);
    std::string b = random_string(24);
    size_t full = Levenshtein(a, b);
    for (size_t bound : {0u, 1u, 2u, 3u, 5u, 10u, 30u}) {
      size_t banded = BoundedLevenshtein(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(banded, full) << "a=" << a << " b=" << b << " bound="
                                << bound;
      } else {
        EXPECT_EQ(banded, bound + 1) << "a=" << a << " b=" << b << " bound="
                                     << bound;
      }
    }
  }
}

TEST(BoundedLevenshteinTest, ZeroBoundDetectsEquality) {
  EXPECT_EQ(BoundedLevenshtein("same", "same", 0), 0u);
  EXPECT_EQ(BoundedLevenshtein("same", "sbme", 0), 1u);
  EXPECT_EQ(BoundedLevenshtein("", "", 0), 0u);
}

// ----------------------------------------------------------------- Tokens

TEST(TokenTest, WordTokensSplitsAndLowercases) {
  auto t = WordTokens("Hello, World! 42");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "hello");
  EXPECT_EQ(t[1], "world");
  EXPECT_EQ(t[2], "42");
}

TEST(TokenTest, TokenJaccardIgnoresOrder) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "c b a"), 1.0);
}

TEST(TokenTest, TokenJaccardPartial) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "b c"), 1.0 / 3.0);
}

TEST(TokenTest, OverlapCoefficientContainment) {
  EXPECT_DOUBLE_EQ(TokenOverlapCoefficient("a b", "a b c d"), 1.0);
}

TEST(TokenTest, MongeElkanIdentical) {
  EXPECT_NEAR(MongeElkan("donald kossmann", "donald kossmann"), 1.0, 1e-12);
}

TEST(TokenTest, MongeElkanToleratesTypos) {
  double s = MongeElkan("donald kossmann", "donald kossman");
  EXPECT_GT(s, 0.9);
}

TEST(TokenTest, EmptyHandling) {
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(MongeElkan("", ""), 1.0);
}

// -------------------------------------------------------------- CharVocab

TEST(CharVocabTest, FitAssignsIds) {
  CharVocab vocab;
  vocab.Fit({"ab", "bc"});
  EXPECT_EQ(vocab.size(), CharVocab::kNumSpecials + 3);
  EXPECT_NE(vocab.CharId('a'), CharVocab::kUnk);
  EXPECT_EQ(vocab.CharId('z'), CharVocab::kUnk);
}

TEST(CharVocabTest, EncodeAddsBosEos) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  auto ids = vocab.Encode("ab");
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.front(), CharVocab::kBos);
  EXPECT_EQ(ids.back(), CharVocab::kEos);
}

TEST(CharVocabTest, EncodeDecodeRoundTrip) {
  CharVocab vocab;
  vocab.Fit({"hello world"});
  EXPECT_EQ(vocab.Decode(vocab.Encode("hello world")), "hello world");
}

TEST(CharVocabTest, DecodeSkipsSpecialsAndUnknown) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  std::vector<int> ids = {CharVocab::kBos, vocab.CharId('a'), CharVocab::kUnk,
                          vocab.CharId('b'), CharVocab::kEos, 9999};
  EXPECT_EQ(vocab.Decode(ids), "ab");
}

// ---------------------------------------------------------------- Perturb

/// One character substitution, insertion or deletion of the raw string,
/// as the reference below applies it.
std::string ReferenceTypo(const std::string& s, Rng* rng) {
  static constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
  if (s.empty()) return std::string(1, kLetters[rng->UniformInt(26u)]);
  std::string out = s;
  switch (rng->UniformInt(3u)) {
    case 0: {
      size_t i = rng->UniformInt(out.size());
      out[i] = kLetters[rng->UniformInt(26u)];
      break;
    }
    case 1: {
      size_t i = rng->UniformInt(out.size() + 1);
      out.insert(out.begin() + i, kLetters[rng->UniformInt(26u)]);
      break;
    }
    default: {
      size_t i = rng->UniformInt(out.size());
      out.erase(out.begin() + i);
      break;
    }
  }
  return out;
}

/// The ops as a split-mutate-Join rewrite of the word list: the reference
/// that ApplyPerturbation, and the hill climb's buffer writer behind it,
/// must match output for output and draw for draw.
std::string ReferencePerturbation(const std::string& s, PerturbOp op,
                                  const std::vector<std::string>& pool,
                                  Rng* rng) {
  std::vector<std::string> words = SplitWhitespace(s);
  switch (op) {
    case PerturbOp::kDropWord: {
      if (words.size() < 2) return ReferenceTypo(s, rng);
      words.erase(words.begin() + rng->UniformInt(words.size()));
      return Join(words, " ");
    }
    case PerturbOp::kSwapWords: {
      if (words.size() < 2) return ReferenceTypo(s, rng);
      size_t i = rng->UniformInt(words.size());
      size_t j = rng->UniformInt(words.size());
      std::swap(words[i], words[j]);
      return Join(words, " ");
    }
    case PerturbOp::kAbbreviateWord: {
      for (auto& w : words) {
        if (w.size() >= 3 && w.back() != '.') {
          w = std::string(1, w[0]) + ".";
          return Join(words, " ");
        }
      }
      return ReferenceTypo(s, rng);
    }
    case PerturbOp::kTypo:
      return ReferenceTypo(s, rng);
    case PerturbOp::kInsertWord: {
      if (pool.empty()) return ReferenceTypo(s, rng);
      const std::string& w = pool[rng->UniformInt(pool.size())];
      size_t i = rng->UniformInt(words.size() + 1);
      words.insert(words.begin() + i, w);
      return Join(words, " ");
    }
    case PerturbOp::kReplaceWord: {
      if (pool.empty() || words.empty()) return ReferenceTypo(s, rng);
      words[rng->UniformInt(words.size())] =
          pool[rng->UniformInt(pool.size())];
      return Join(words, " ");
    }
    case PerturbOp::kTruncate: {
      if (words.size() < 2) return ReferenceTypo(s, rng);
      size_t keep = 1 + rng->UniformInt(words.size() - 1);
      words.resize(keep);
      return Join(words, " ");
    }
    case PerturbOp::kDuplicateWord: {
      if (words.empty()) return ReferenceTypo(s, rng);
      size_t i = rng->UniformInt(words.size());
      words.insert(words.begin() + i, words[i]);
      return Join(words, " ");
    }
  }
  return s;
}

constexpr PerturbOp kAllOps[] = {
    PerturbOp::kDropWord,       PerturbOp::kSwapWords,
    PerturbOp::kAbbreviateWord, PerturbOp::kTypo,
    PerturbOp::kInsertWord,     PerturbOp::kReplaceWord,
    PerturbOp::kTruncate,       PerturbOp::kDuplicateWord,
};

/// Edge inputs: empty, 1-2 characters, whitespace only, runs of spaces
/// and tabs, uppercase, non-ASCII bytes, abbreviations.
const std::vector<std::string>& PerturbInputs() {
  static const std::vector<std::string> inputs = {
      "",
      "a",
      "ab",
      "x y",
      " ",
      " \t  \t",
      "\tlead and trail  ",
      "runs   of\t\tspaces \t and\ttabs",
      "UPPER Case MiXeD WORDS",
      "caf\xc3\xa9 na\xc3\xafve \xff\xfe\x80 bytes",
      "D. E. Knuth",
      "adaptive query evaluation over streaming data sources",
  };
  return inputs;
}

/// Word pools: empty (the pool ops fall back to a typo), one empty word,
/// an empty word among others, and a word holding a space.
const std::vector<std::vector<std::string>>& PerturbPools() {
  static const std::vector<std::vector<std::string>> pools = {
      {}, {""}, {"join", "", "Cache"}, {"two words", "x"}};
  return pools;
}

TEST(PerturbTest, EveryOpMatchesSplitJoinReferenceAndDraws) {
  for (PerturbOp op : kAllOps) {
    for (const std::string& s : PerturbInputs()) {
      for (const auto& pool : PerturbPools()) {
        for (uint64_t seed = 0; seed < 12; ++seed) {
          Rng got_rng(seed);
          Rng want_rng(seed);
          EXPECT_EQ(ApplyPerturbation(s, op, pool, &got_rng),
                    ReferencePerturbation(s, op, pool, &want_rng))
              << "op " << static_cast<int>(op) << " input '" << s
              << "' pool size " << pool.size() << " seed " << seed;
          EXPECT_EQ(got_rng.Next(), want_rng.Next())
              << "op " << static_cast<int>(op) << " input '" << s << "'";
        }
      }
    }
  }
}

TEST(PerturbTest, RandomPerturbationDrawsTheOpFirst) {
  for (const std::string& s : PerturbInputs()) {
    Rng got_rng(17);
    Rng want_rng(17);
    for (int i = 0; i < 40; ++i) {
      const PerturbOp op = kAllOps[want_rng.UniformInt(8u)];
      EXPECT_EQ(RandomPerturbation(s, PerturbPools()[2], &got_rng),
                ReferencePerturbation(s, op, PerturbPools()[2], &want_rng));
    }
    EXPECT_EQ(got_rng.Next(), want_rng.Next());
  }
}

TEST(PerturbTest, DropWordRemovesOne) {
  Rng rng(1);
  std::string out =
      ApplyPerturbation("alpha beta gamma", PerturbOp::kDropWord, {}, &rng);
  EXPECT_EQ(SplitWhitespace(out).size(), 2u);
}

TEST(PerturbTest, AbbreviateProducesInitial) {
  Rng rng(2);
  std::string out = ApplyPerturbation("Donald Kossmann",
                                      PerturbOp::kAbbreviateWord, {}, &rng);
  EXPECT_EQ(out, "D. Kossmann");
}

TEST(PerturbTest, TypoChangesEditDistanceByOne) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::string out =
        ApplyPerturbation("database", PerturbOp::kTypo, {}, &rng);
    EXPECT_LE(Levenshtein("database", out), 1u);
  }
}

TEST(PerturbTest, InsertUsesPool) {
  Rng rng(4);
  std::string out = ApplyPerturbation("a b", PerturbOp::kInsertWord,
                                      {"zzz"}, &rng);
  EXPECT_NE(out.find("zzz"), std::string::npos);
}

TEST(PerturbTest, RandomPerturbationNeverCrashesOnEdgeInputs) {
  Rng rng(5);
  for (const char* s : {"", "x", "a b", "word"}) {
    for (int i = 0; i < 50; ++i) {
      RandomPerturbation(s, {"pool", "words"}, &rng);
    }
  }
}

TEST(HillClimbTest, ReachesHighTarget) {
  Rng rng(6);
  auto sim = [](const std::string& a, const std::string& b) {
    return QgramJaccard(a, b);
  };
  std::string ref = "adaptive query optimization in temporal middleware";
  std::string out = HillClimbToSimilarity(ref, ref, 0.7, sim,
                                          {"systems", "data", "join"}, &rng);
  EXPECT_NEAR(sim(ref, out), 0.7, 0.15);
}

TEST(HillClimbTest, ReachesLowTargetFromUnrelatedStart) {
  Rng rng(7);
  auto sim = [](const std::string& a, const std::string& b) {
    return QgramJaccard(a, b);
  };
  std::string ref = "generalised hash teams for join and group-by";
  std::string out = HillClimbToSimilarity(
      ref, "completely different text about music", 0.1, sim,
      {"streams", "cache", "parallel"}, &rng);
  EXPECT_NEAR(sim(ref, out), 0.1, 0.15);
}

TEST(HillClimbTest, ZeroIterationsReturnsStart) {
  Rng rng(8);
  HillClimbOptions opts;
  opts.max_iters = 0;
  auto sim = [](const std::string& a, const std::string& b) {
    return QgramJaccard(a, b);
  };
  EXPECT_EQ(HillClimbToSimilarity("abc", "start", 0.5, sim, {}, &rng, opts),
            "start");
}

TEST(HillClimbTest, ProfiledQgramClimbMatchesPairwiseClimb) {
  // A QgramJaccardSim climb hashes its reference once; it must walk the
  // same search as the same measure behind an opaque lambda.
  auto pairwise = [](const std::string& a, const std::string& b) {
    return QgramJaccard(a, b, 3);
  };
  const std::vector<std::string> pool = {"join", "cache", "query", "index"};
  const std::string ref = "adaptive query optimization in temporal middleware";
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const double target = 0.05 * static_cast<double>(seed);
    const std::string start = seed % 2 == 0 ? ref : "streams of parallel joins";
    Rng profiled_rng(seed);
    Rng pairwise_rng(seed);
    EXPECT_EQ(HillClimbToSimilarity(ref, start, target, QgramJaccardSim{},
                                    pool, &profiled_rng),
              HillClimbToSimilarity(ref, start, target, pairwise, pool,
                                    &pairwise_rng))
        << "seed " << seed;
    EXPECT_EQ(profiled_rng.Next(), pairwise_rng.Next());
  }

  // Random references, starts, targets and pools over the edge inputs,
  // an empty reference, and strings longer than any fixed table, at
  // several q: same result, same draws, same proposal count.
  std::vector<std::string> inputs = PerturbInputs();
  Rng gen(99);
  std::string long_text;
  while (long_text.size() < 3000) {
    long_text += 'w';
    long_text += std::to_string(gen.UniformInt(5000u));
    long_text += ' ';
  }
  inputs.push_back(long_text);
  for (int q : {2, 3, 4}) {
    auto pairwise_q = [q](const std::string& a, const std::string& b) {
      return QgramJaccard(a, b, q);
    };
    for (int trial = 0; trial < 60; ++trial) {
      const std::string& climb_ref =
          trial == 0 ? std::string() : inputs[gen.UniformInt(inputs.size())];
      const std::string& start =
          trial == 1 ? long_text : inputs[gen.UniformInt(inputs.size())];
      const double target = gen.Uniform(0.0, 1.0);
      const auto& climb_pool =
          PerturbPools()[gen.UniformInt(PerturbPools().size())];
      const uint64_t seed = gen.Next();
      Rng profiled_rng(seed);
      Rng pairwise_rng(seed);
      long profiled_proposals = 0, pairwise_proposals = 0;
      EXPECT_EQ(HillClimbToSimilarity(climb_ref, start, target,
                                      QgramJaccardSim{q}, climb_pool,
                                      &profiled_rng, {}, &profiled_proposals),
                HillClimbToSimilarity(climb_ref, start, target, pairwise_q,
                                      climb_pool, &pairwise_rng, {},
                                      &pairwise_proposals))
          << "q " << q << " trial " << trial;
      EXPECT_EQ(profiled_rng.Next(), pairwise_rng.Next());
      EXPECT_EQ(profiled_proposals, pairwise_proposals);
    }
  }
}

/// Property sweep: perturbation output stays non-degenerate across ops.
class PerturbOpSweep : public testing::TestWithParam<PerturbOp> {};

TEST_P(PerturbOpSweep, OutputNonEmptyForRealisticInput) {
  Rng rng(42);
  std::vector<std::string> pool = {"alpha", "beta"};
  for (int i = 0; i < 30; ++i) {
    std::string out = ApplyPerturbation("adaptive query evaluation",
                                        GetParam(), pool, &rng);
    EXPECT_FALSE(out.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, PerturbOpSweep, testing::ValuesIn(kAllOps));

}  // namespace
}  // namespace serd
