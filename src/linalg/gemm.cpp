// Public GEMM entry points: work accounting plus dispatch into the kernel
// registry (linalg/kernels/registry.hpp). The kernel bodies themselves live
// in src/linalg/kernels/ — gemm_scalar.cpp holds the historical portable
// loops, gemm_avx2.cpp the vectorized backend. The tree-wide
// -ffp-contract=off (root CMakeLists.txt) keeps the backends bit-identical.
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

}  // namespace pdnn::linalg
