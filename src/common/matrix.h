#ifndef SERD_COMMON_MATRIX_H_
#define SERD_COMMON_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace serd {

/// Dense column vector of doubles. Thin wrapper over std::vector with the
/// arithmetic the statistics code needs (GMM means, similarity vectors).
using Vec = std::vector<double>;

/// v += w
void AddInPlace(Vec* v, const Vec& w);
/// v *= s
void ScaleInPlace(Vec* v, double s);
/// v - w
Vec Sub(const Vec& v, const Vec& w);
/// dot product
double Dot(const Vec& v, const Vec& w);
/// Euclidean norm
double Norm(const Vec& v);

/// Dense row-major matrix of doubles, sized for the small covariance
/// matrices in this library (dimension = number of schema columns).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity scaled by `scale`.
  static Matrix Identity(size_t n, double scale = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    SERD_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    SERD_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix Transpose() const;

  /// this * other; dimension mismatch aborts.
  Matrix Multiply(const Matrix& other) const;

  /// this * v
  Vec Multiply(const Vec& v) const;

  /// Adds `ridge` to the diagonal (regularization).
  void AddDiagonal(double ridge);

  std::string ToString() const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix: A = L L^T
/// with L lower triangular. Returns FailedPrecondition if A is not (numerically)
/// positive definite.
Result<Matrix> Cholesky(const Matrix& a);

/// Cholesky's factorization in place: overwrites square `a` with L (zeros
/// above the diagonal), the same operations in the same order, and
/// returns a.rows(). Where a pivot is not positive (or not finite), stops
/// there, leaving `a` partly overwritten, and returns that pivot's index.
size_t CholeskyInPlace(Matrix* a);

/// Solves L y = b for lower-triangular L (forward substitution).
Vec ForwardSolve(const Matrix& l, const Vec& b);

/// Solves L^T x = y for lower-triangular L (backward substitution).
Vec BackwardSolve(const Matrix& l, const Vec& y);

/// log(det(A)) for SPD A via its Cholesky factor L: 2 * sum(log L_ii).
double LogDetFromCholesky(const Matrix& l);

/// Outer product v * w^T.
Matrix Outer(const Vec& v, const Vec& w);

}  // namespace serd

#endif  // SERD_COMMON_MATRIX_H_
