#include "common/matrix.h"

#include <cmath>
#include <sstream>

namespace serd {

void AddInPlace(Vec* v, const Vec& w) {
  SERD_CHECK_EQ(v->size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) (*v)[i] += w[i];
}

void ScaleInPlace(Vec* v, double s) {
  for (double& x : *v) x *= s;
}

Vec Sub(const Vec& v, const Vec& w) {
  SERD_CHECK_EQ(v.size(), w.size());
  Vec out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] - w[i];
  return out;
}

double Dot(const Vec& v, const Vec& w) {
  SERD_CHECK_EQ(v.size(), w.size());
  double s = 0.0;
  for (size_t i = 0; i < v.size(); ++i) s += v[i] * w[i];
  return s;
}

double Norm(const Vec& v) { return std::sqrt(Dot(v, v)); }

Matrix Matrix::Identity(size_t n, double scale) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = scale;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  SERD_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += a * other(k, j);
      }
    }
  }
  return out;
}

Vec Matrix::Multiply(const Vec& v) const {
  SERD_CHECK_EQ(cols_, v.size());
  Vec out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < cols_; ++j) s += (*this)(i, j) * v[j];
    out[i] = s;
  }
  return out;
}

void Matrix::AddDiagonal(double ridge) {
  size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += ridge;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  for (size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c) << (c + 1 < cols_ ? ", " : "");
    }
    os << (r + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

Result<Matrix> Cholesky(const Matrix& a) {
  Matrix l = a;
  const size_t pivot = CholeskyInPlace(&l);
  if (pivot < l.rows()) {
    return Status::FailedPrecondition(
        "matrix is not positive definite at pivot " + std::to_string(pivot));
  }
  return l;
}

size_t CholeskyInPlace(Matrix* a) {
  SERD_CHECK_EQ(a->rows(), a->cols());
  const size_t n = a->rows();
  double* l = a->data().data();
  // Row i reads a(i, j) before overwriting it, and only L's entries left of
  // column j in rows i and j, which are already L's.
  for (size_t i = 0; i < n; ++i) {
    double* li = l + i * n;
    for (size_t j = 0; j <= i; ++j) {
      const double* lj = l + j * n;
      double sum = li[j];
      for (size_t k = 0; k < j; ++k) sum -= li[k] * lj[k];
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return i;
        li[j] = std::sqrt(sum);
      } else {
        li[j] = sum / lj[j];
      }
    }
    for (size_t j = i + 1; j < n; ++j) li[j] = 0.0;
  }
  return n;
}

Vec ForwardSolve(const Matrix& l, const Vec& b) {
  SERD_CHECK_EQ(l.rows(), b.size());
  const size_t n = b.size();
  Vec y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

Vec BackwardSolve(const Matrix& l, const Vec& y) {
  SERD_CHECK_EQ(l.rows(), y.size());
  const size_t n = y.size();
  Vec x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

double LogDetFromCholesky(const Matrix& l) {
  double s = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

Matrix Outer(const Vec& v, const Vec& w) {
  Matrix m(v.size(), w.size());
  for (size_t i = 0; i < v.size(); ++i) {
    for (size_t j = 0; j < w.size(); ++j) m(i, j) = v[i] * w[j];
  }
  return m;
}

}  // namespace serd
