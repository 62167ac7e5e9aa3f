// Scalar (generic fallback) GEMM backend: the historical cache-blocked
// kernels, written so the inner loops auto-vectorize. This translation unit
// is compiled with -ffp-contract=off — each accumulated term is an explicit
// multiply then add, the op schedule the AVX2 backend reproduces lane for
// lane — so the two backends are bit-identical (tests/test_kernels.cpp).
#include <cstddef>
#include <cstdint>

#include "linalg/kernels/kernel_common.hpp"
#include "linalg/kernels/registry.hpp"

namespace pdnn::linalg::detail {

namespace {

void scalar_gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
                    const float* b, int ldb, float beta, float* c, int ldc) {
  for_each_row_panel(m, n, k, [&](int panel) {
    const int i0 = panel * kMB;
    const int i1 = std::min(m, i0 + kMB);
    scale_rows(i1 - i0, n, beta, c + static_cast<std::ptrdiff_t>(i0) * ldc,
               ldc);
    for (int p0 = 0; p0 < k; p0 += kKB) {
      const int p1 = std::min(k, p0 + kKB);
      for (int i = i0; i < i1; ++i) {
        float* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
        const float* arow = a + static_cast<std::ptrdiff_t>(i) * lda;
        for (int p = p0; p < p1; ++p) {
          // No zero-skip: 0 * NaN/Inf must contribute NaN exactly as BLAS
          // semantics (and the naive reference) prescribe.
          const float aip = alpha * arow[p];
          const float* brow = b + static_cast<std::ptrdiff_t>(p) * ldb;
          // Inner loop over j: contiguous on both B and C, auto-vectorizes.
          for (int j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
      }
    }
  });
}

void scalar_gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
                    const float* b, int ldb, float beta, float* c, int ldc) {
  // Row panels of C instead of the historical k-outer loop so panels are
  // disjoint across threads; each C row still accumulates its k terms in
  // ascending p order, exactly as before.
  for_each_row_panel(m, n, k, [&](int panel) {
    const int i0 = panel * kMB;
    const int i1 = std::min(m, i0 + kMB);
    scale_rows(i1 - i0, n, beta, c + static_cast<std::ptrdiff_t>(i0) * ldc,
               ldc);
    for (int p0 = 0; p0 < k; p0 += kKB) {
      const int p1 = std::min(k, p0 + kKB);
      for (int p = p0; p < p1; ++p) {
        const float* arow = a + static_cast<std::ptrdiff_t>(p) * lda;  // A[p,:]
        const float* brow = b + static_cast<std::ptrdiff_t>(p) * ldb;  // B[p,:]
        for (int i = i0; i < i1; ++i) {
          // No zero-skip — see scalar_gemm_nn: skipping drops 0 * NaN/Inf.
          const float api = alpha * arow[i];
          float* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
          for (int j = 0; j < n; ++j) crow[j] += api * brow[j];
        }
      }
    }
  });
}

}  // namespace

const KernelTable kScalarTable = {
    KernelBackend::kScalar,
    scalar_gemm_nn,
    scalar_gemm_tn,
    nullptr,  // no fused conv: the scalar path lowers through im2col
};

}  // namespace pdnn::linalg::detail
