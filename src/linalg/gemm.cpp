// Public GEMM entry points: work accounting plus dispatch into the kernel
// registry (linalg/kernels/registry.hpp). The kernel bodies themselves live
// in src/linalg/kernels/ — gemm_scalar.cpp holds the historical portable
// loops, gemm_avx2.cpp the vectorized backend — both compiled with
// -ffp-contract=off to keep the backends bit-identical.
#include "linalg/gemm.hpp"

#include <cstdint>

#include "linalg/kernels/registry.hpp"
#include "obs/obs.hpp"

namespace pdnn::linalg {

namespace {

/// Work accounting shared by both kernels: one call, 2*m*n*k flops.
inline void note_gemm(int m, int n, int k) {
  obs::counter_add(obs::Counter::kGemmCalls, 1);
  obs::counter_add(obs::Counter::kGemmFlops,
                   2 * static_cast<std::int64_t>(m) * n *
                       static_cast<std::int64_t>(k));
}

}  // namespace

void gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc) {
  note_gemm(m, n, k);
  kernels().gemm_nn(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc) {
  note_gemm(m, n, k);
  kernels().gemm_tn(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void axpy(int n, float alpha, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot(int n, const float* x, const float* y) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

}  // namespace pdnn::linalg
