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
/// multiply-add (see DESIGN.md "Kernel layer").

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

/// out[r,c] = max(0, x[r,c] + bias[c]); bias may be null (plain ReLU).
void BiasRelu(std::size_t rows, std::size_t cols, const float* x,
              const float* bias, float* out);

/// Row-wise softmax of `x` [rows, cols] into `out`. If `add_mask` is
/// non-null it is added to the logits first (same layout).
void SoftmaxRows(std::size_t rows, std::size_t cols, const float* x,
                 const float* add_mask, float* out);

/// out[i] = 0.5 * x[i] * (1 + tanh(sqrt(2/pi) * (x[i] + 0.044715 x[i]^3))).
/// The single tanh-GELU definition shared by the tape forward op and the
/// incremental decode path, so both round identically. In-place safe.
void Gelu(std::size_t n, const float* x, float* out);

/// Row-wise layer norm with learned gain/bias (each length `cols`).
/// Writes the normalized values to `xhat` and 1/std to `inv_std` (length
/// `rows`) for the backward pass; either may be null at inference.
void LayerNormRows(std::size_t rows, std::size_t cols, const float* x,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_std);

}  // namespace serd::nn::kernels

#endif  // SERD_NN_KERNELS_H_
