#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/csv.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace serd {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsThenPropagates() {
  SERD_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(9);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{5}));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(19);
  const int n = 30000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceSkipsRuns) {
  const std::string s = "  a \t b\n\nc ";
  auto parts = SplitWhitespace(s);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  // The view overload finds the same words, as views of `s`, and clears
  // what the vector held.
  std::vector<std::string_view> views = {"stale"};
  SplitWhitespace(s, &views);
  EXPECT_EQ(std::vector<std::string>(views.begin(), views.end()), parts);
  EXPECT_EQ(views[1].data(), s.data() + 6);
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> v = {"x", "y", "z"};
  EXPECT_EQ(Join(v, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("h", "he"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("o", "lo"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, ParsesSimpleDocument) {
  auto doc = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][1], "4");
}

TEST(CsvTest, HandlesQuotedFields) {
  auto doc = ParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "x,y");
  EXPECT_EQ(doc->rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, HandlesEmbeddedNewline) {
  auto doc = ParseCsv("a\n\"line1\nline2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "line1\nline2");
}

TEST(CsvTest, HandlesCrLf) {
  auto doc = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(CsvTest, MissingTrailingNewlineOk) {
  auto doc = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
}

TEST(CsvTest, RejectsRowWidthMismatch) {
  auto doc = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto doc = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(doc.ok());
}

TEST(CsvTest, RejectsEmpty) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, WriteParseRoundTrip) {
  CsvDocument doc;
  doc.header = {"name", "note"};
  doc.rows = {{"a,b", "he said \"x\""}, {"plain", "line\nbreak"}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"k", "v"};
  doc.rows = {{"1", "x"}};
  std::string path = testing::TempDir() + "/serd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, doc).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, doc.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------- Matrix

TEST(VecTest, Arithmetic) {
  Vec a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  Vec d = Sub(b, a);
  EXPECT_EQ(d, (Vec{3, 3, 3}));
  AddInPlace(&a, b);
  EXPECT_EQ(a, (Vec{5, 7, 9}));
  ScaleInPlace(&a, 2.0);
  EXPECT_EQ(a, (Vec{10, 14, 18}));
  EXPECT_DOUBLE_EQ(Norm(Vec{3, 4}), 5.0);
}

TEST(MatrixTest, IdentityAndMultiply) {
  Matrix i = Matrix::Identity(3, 2.0);
  Matrix m(3, 3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) m(r, c) = static_cast<double>(r * 3 + c);
  }
  Matrix prod = i.Multiply(m);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), 2 * m(r, c));
  }
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix m(2, 3);
  m(0, 1) = 5.0;
  m(1, 2) = -2.0;
  Matrix tt = m.Transpose().Transpose();
  EXPECT_DOUBLE_EQ(tt(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(tt(1, 2), -2.0);
}

TEST(MatrixTest, CholeskyReconstructs) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix recon = l->Multiply(l->Transpose());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_NEAR(recon(r, c), a(r, c), 1e-12);
  }
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3 and -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(MatrixTest, SolvesViaCholesky) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  Vec b = {10.0, 8.0};
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Vec x = BackwardSolve(*l, ForwardSolve(*l, b));
  // Verify A x = b.
  Vec ax = a.Multiply(x);
  EXPECT_NEAR(ax[0], b[0], 1e-10);
  EXPECT_NEAR(ax[1], b[1], 1e-10);
}

TEST(MatrixTest, LogDetMatchesKnown) {
  Matrix a = Matrix::Identity(3, 2.0);  // det = 8
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(LogDetFromCholesky(*l), std::log(8.0), 1e-12);
}

TEST(MatrixTest, OuterProduct) {
  Matrix o = Outer(Vec{1, 2}, Vec{3, 4, 5});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(2, 2);
  m.AddDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

}  // namespace
}  // namespace serd
