// Dense matrix-multiply kernels (row-major, single precision).
//
// These two kernels are the computational backend of the CNN library: the
// im2col formulation of conv2d maps its forward, weight-gradient and
// input-gradient passes onto gemm_nn, gemm_nn and gemm_tn respectively. The
// weight gradient dW = gy * col^T runs as dW^T = col * gy^T, so every pass
// streams the long pixel axis through a vectorized kernel.
// They are cache-blocked and written so the inner loops auto-vectorize; on a
// single AVX2 core they sustain several GFLOP/s. Sufficiently large problems
// additionally fan out across the global util::ThreadPool by disjoint row
// panels of C. Every C element accumulates its k terms in a fixed order, so
// results are bit-identical for any thread count (including 1).
#pragma once

#include <cstddef>

namespace pdnn::linalg {

/// C = alpha * A * B + beta * C.
/// A is MxK, B is KxN, C is MxN, all row-major with the given leading
/// dimensions (elements per row).
void gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);

/// C = alpha * A^T * B + beta * C.  A is KxM, B is KxN, C is MxN.
void gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);

/// y = alpha * x + y over n elements.
void axpy(int n, float alpha, const float* x, float* y);

/// Dot product over n elements (accumulated in double for stability).
double dot(int n, const float* x, const float* y);

}  // namespace pdnn::linalg
