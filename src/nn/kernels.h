#ifndef SERD_NN_KERNELS_H_
#define SERD_NN_KERNELS_H_

#include <cstddef>

namespace serd::nn::kernels {

/// Single-thread float kernels behind the autograd tape (tape.cc) and the
/// model forward passes. All matrices are dense row-major. The GEMM family
/// is cache-blocked and register-tiled: A and B are packed into
/// contiguous panels (MR-row and NR-column respectively) so the inner
/// micro-kernel runs on unit-stride data with an MR x NR accumulator
/// block that lives in registers across the whole K extent; short calls,
/// such as a decode step's 1-row projections, skip the packing (see
/// GemmStrided for the shape rule). The loop nest and blocking constants
/// are fixed, so results are bit-identical from run to run and independent
/// of the caller's thread count (each call is single-threaded; concurrency
/// happens one model replica per thread above this layer).
///
/// On x86-64 the GEMM core additionally carries an AVX2+FMA clone picked
/// once per process via CPU detection, so portable (SSE2 baseline) builds
/// still reach fused 256-bit arithmetic on capable hosts. Configure with
/// -DSERD_NATIVE=ON to instead compile the whole project with
/// -march=native. Either way the loop nest and summation order are fixed,
/// so results never depend on the thread count; across machines or
/// builds, FMA contraction may round differently than separate
/// multiply-add (see DESIGN.md "Kernel layer"). The activations' Exp has
/// its own AVX2 clone, compiled without FMA so that it rounds exactly as
/// its portable body.

/// C[m,n] = A[m,k] * B[k,n]   (accumulate=false overwrites C)
/// C[m,n] += A[m,k] * B[k,n]  (accumulate=true)
void GemmNN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate);

/// C[m,n] (+)= A[m,k] * B^T where B is stored [n,k] row-major.
void GemmNT(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate);

/// C[m,n] (+)= A^T * B where A is stored [k,m] row-major and B is [k,n].
void GemmTN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate);

/// General strided view: C[m,n] (+)= A * B where A's element (i,p) is
/// a[i*ars + p*acs] and B's element (p,j) is b[p*brs + j*bcs]; C is dense
/// row-major [m,n]. This is the driver behind GemmNN/NT/TN, exposed so the
/// incremental decode path (seq2seq KV cache) can run attention over
/// head-column slices of row-appended K/V buffers without copying them
/// out. The call's shape picks one of two paths (TakesRowsPath in
/// kernels_gemm.inc): calls with fewer rows than one register tile skip
/// packing and read A and B in place, except that a B read across its
/// storage rows (bcs != 1, such as K read transposed) takes that path only
/// for a single row and a stride that fits the AVX2 gather's 32-bit
/// offsets; every other call runs the packed, tiled path. Both give each
/// C[i,j] the same chain — one sequential multiply-add per p within each
/// KC block, stored or added into C block by block — so a 1-row call is
/// bit-identical to the matching row of a full-matrix call.
void GemmStrided(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t ars, std::size_t acs, const float* b,
                 std::size_t brs, std::size_t bcs, float* c, bool accumulate);

/// The pre-kernel-layer scalar triple loop (with its dense-hostile
/// zero-skip branch), kept verbatim as the correctness reference for the
/// equivalence tests and as the "before" row of bench_micro's SGEMM
/// comparison. C[m,n] += A[m,k] * B[k,n].
void ReferenceGemmNN(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c);

// ---------------------------------------------------------------- level-1

/// y[i] += alpha * x[i]
void Axpy(std::size_t n, float alpha, const float* x, float* y);

/// y[i] += x[i]
void AddInto(std::size_t n, const float* x, float* y);

/// out[i] = a[i] + b[i]
void Add(std::size_t n, const float* a, const float* b, float* out);

/// out[i] = x[i] * s
void ScaleCopy(std::size_t n, float s, const float* x, float* out);

// ------------------------------------------------------------- activations

/// out[i] = exp(x[i]): the one exponential behind SoftmaxRows, Gelu and
/// GeluGrad. Every element goes through ReferenceExp's arithmetic whatever
/// the call length and its position in the call: the AVX2 clone (picked
/// like the GEMM's, compiled without FMA) pads a short tail into a full
/// vector rather than switching formula, so it equals ReferenceExp bit for
/// bit. In-place safe.
void Exp(std::size_t n, const float* x, float* out);

/// The portable body of Exp, exposed as the correctness reference (as
/// ReferenceGemmNN is): Cephes-style n = round(x / ln 2), a two-part ln 2
/// reduction r, 1 + r + r^2 P(r) with a six-term P, and 2^n scaling.
/// Within 2 ulp of exp in double on [-87, 88]; exactly +0 for x < -87, so
/// masked -1e9 logits give exact zeros; inputs above 88 are clamped to 88,
/// so a finite input never gives inf or NaN.
float ReferenceExp(float x);

/// out[r,c] = max(0, x[r,c] + bias[c]); bias may be null (plain ReLU).
void BiasRelu(std::size_t rows, std::size_t cols, const float* x,
              const float* bias, float* out);

/// Row-wise softmax of `x` [rows, cols] into `out`. If `add_mask` is
/// non-null it is added to the logits first (same layout). Per row: a
/// running max, Exp of each logit minus the max, a left-fold sum, then a
/// multiply by its reciprocal. Exp's exact +0 below its cutoff means
/// trailing masked entries are exactly 0 and leave the sum unchanged, so a
/// row padded with -1e9 entries has the same bits elsewhere as the
/// unpadded row (the KV-cache oracle relies on it). In-place safe.
void SoftmaxRows(std::size_t rows, std::size_t cols, const float* x,
                 const float* add_mask, float* out);

/// out[i] = v / (1 + exp(-2u)), u = sqrt(2/pi) * (v + 0.044715 v^3),
/// v = x[i]: the tanh-approximation GELU 0.5 v (1 + tanh u) in sigmoid
/// form, which has no cancellation for negative v. The single GELU
/// definition shared by the tape forward op and the incremental decode
/// path, so both round identically. In-place safe.
void Gelu(std::size_t n, const float* x, float* out);

/// dx[i] += dy[i] * GELU'(x[i]) for the Gelu above: with
/// s = 1 / (1 + exp(-2u)), GELU'(v) = s + 2 v s (1 - s) u'. The tape's
/// backward pass; it uses the same Exp.
void GeluGrad(std::size_t n, const float* x, const float* dy, float* dx);

/// Row-wise layer norm with learned gain/bias (each length `cols`).
/// Writes the normalized values to `xhat` and 1/std to `inv_std` (length
/// `rows`) for the backward pass; either may be null at inference.
void LayerNormRows(std::size_t rows, std::size_t cols, const float* x,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_std);

}  // namespace serd::nn::kernels

#endif  // SERD_NN_KERNELS_H_
