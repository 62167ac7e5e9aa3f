// Internals shared by the kernel backends (not part of the public API).
//
// The blocking constants, beta-scaling pass, and row-panel parallel driver
// live here so the scalar fallback and the AVX2 backend partition work —
// and therefore schedule floating-point operations per output element —
// identically. The determinism contract requires an explicit
// multiply-then-add per accumulated term in both, and the tree-wide
// -ffp-contract=off (root CMakeLists.txt) keeps the compiler from
// contracting either into FMA.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "linalg/kernels/registry.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::linalg::detail {

// Block sizes chosen so one A panel (kMB x kKB floats) plus one B panel
// (kKB x n row-slab) stay L1/L2 resident on typical x86 cores.
constexpr int kMB = 64;
constexpr int kKB = 256;

// Minimum multiply-add count before a kernel fans out to the thread pool;
// below this the dispatch overhead dominates. Parallelization is over
// disjoint row panels of C with a fixed per-row accumulation order, so the
// threshold (and the thread count) never changes the computed bits.
constexpr std::int64_t kParallelFlops = std::int64_t{1} << 20;

inline void scale_rows(int m, int n, float beta, float* c, int ldc) {
  if (beta == 1.0f) return;
  for (int i = 0; i < m; ++i) {
    float* row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else {
      for (int j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

/// Run body(panel) over ceil(m / kMB) row panels, on the pool when the
/// problem is big enough and serially otherwise. Each panel owns rows
/// [panel*kMB, min(m, panel*kMB + kMB)) of C exclusively.
template <typename Body>
void for_each_row_panel(int m, int n, int k, const Body& body) {
  const std::int64_t panels = (m + kMB - 1) / kMB;
  const std::int64_t flops =
      static_cast<std::int64_t>(m) * n * static_cast<std::int64_t>(k);
  if (panels > 1 && flops >= kParallelFlops) {
    util::ThreadPool::global().run(
        panels, [&](std::int64_t panel) { body(static_cast<int>(panel)); });
  } else {
    for (std::int64_t panel = 0; panel < panels; ++panel) {
      body(static_cast<int>(panel));
    }
  }
}

/// The scalar fallback backend (always present).
extern const KernelTable kScalarTable;

/// The AVX2 backend's table, or nullptr when the binary was built without
/// AVX2 support. Defined in gemm_avx2.cpp under both conditions.
const KernelTable* avx2_table();

}  // namespace pdnn::linalg::detail
