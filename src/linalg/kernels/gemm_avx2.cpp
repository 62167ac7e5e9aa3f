// AVX2 kernel backend: register-blocked GEMM microkernels over packed B
// panels, and a fused 3x3 convolution that skips im2col for the paper net's
// stride-1/stride-2 shapes.
//
// Bit-identity with the scalar fallback is a hard contract (tests and the CI
// kernel-dispatch job memcmp the two backends): every output element
// accumulates its k terms in ascending order, each term as an explicit
// multiply (_mm256_mul_ps) then add (_mm256_add_ps) — the same two roundings
// the scalar loops perform — and this translation unit is compiled with
// -ffp-contract=off so the compiler cannot fuse the pair into an FMA. The
// speedup comes from keeping C tiles in ymm accumulators (the scalar kernel
// streams every C row through memory once per k step), from packed
// contiguous B panels, and — for conv — from skipping the 9x im2col
// materialization entirely; never from reassociating the sum.
#include "linalg/kernels/kernel_common.hpp"
#include "linalg/kernels/registry.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::linalg::detail {

namespace {

// ---------------------------------------------------------------------------
// GEMM: C = alpha * op(A) * B + beta * C over packed 8-column B tiles
// ---------------------------------------------------------------------------

/// A addressed row-major (gemm_nn): element (i, p) of the M x K operand.
struct NnAccess {
  const float* a;
  int lda;
  float at(int i, int p) const {
    return a[static_cast<std::ptrdiff_t>(i) * lda + p];
  }
};

/// A addressed transposed (gemm_tn): the operand is K x M.
struct TnAccess {
  const float* a;
  int lda;
  float at(int i, int p) const {
    return a[static_cast<std::ptrdiff_t>(p) * lda + i];
  }
};

/// Per-thread packing scratch. Workers reading a caller's panels receive the
/// data pointer through the parallel lambda, so each concurrent gemm caller
/// (e.g. conv batch workers) packs into its own buffer.
std::vector<float>& pack_scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

/// Per-thread scratch for the alpha-scaled A panel (each panel worker packs
/// its own rows, so this is per worker, not per gemm call).
std::vector<float>& a_scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

/// Stage B's full 8-column tiles contiguously: pack[(tile * k + p) * 8 + j]
/// = B[p][tile * 8 + j]. Pure data movement (tiles are disjoint), so packing
/// in parallel cannot perturb bits.
void pack_b(int n, int k, const float* b, int ldb, float* pack,
            bool parallel) {
  const int tiles = n / 8;
  const auto pack_tile = [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      float* dst = pack + t * k * 8;
      const float* src = b + t * 8;
      for (int p = 0; p < k; ++p) {
        const float* row = src + static_cast<std::ptrdiff_t>(p) * ldb;
        for (int j = 0; j < 8; ++j) dst[j] = row[j];
        dst += 8;
      }
    }
  };
  if (parallel && tiles > 1) {
    util::parallel_for(tiles, 8, pack_tile);
  } else {
    pack_tile(0, tiles);
  }
}

/// 2 x 4-tile microkernel: rows i0, i0+1 against 32 packed columns. The
/// accumulators seed from the beta-scaled C rows and sweep p ascending, so
/// each element sees exactly the scalar kernel's operation sequence. as0/as1
/// are the rows' alpha-prescaled A entries, so the per-term broadcast is a
/// pure load (vbroadcastss) that leaves both FP ports to the mul+add pairs.
void kernel_2x4(const float* as0, const float* as1, int k, const float* pack0,
                const float* pack1, const float* pack2, const float* pack3,
                std::ptrdiff_t bs, float* c0, float* c1) {
  __m256 a00 = _mm256_loadu_ps(c0 + 0), a01 = _mm256_loadu_ps(c0 + 8);
  __m256 a02 = _mm256_loadu_ps(c0 + 16), a03 = _mm256_loadu_ps(c0 + 24);
  __m256 a10 = _mm256_loadu_ps(c1 + 0), a11 = _mm256_loadu_ps(c1 + 8);
  __m256 a12 = _mm256_loadu_ps(c1 + 16), a13 = _mm256_loadu_ps(c1 + 24);
  for (int p = 0; p < k; ++p) {
    const __m256 t0 = _mm256_broadcast_ss(as0 + p);
    const __m256 t1 = _mm256_broadcast_ss(as1 + p);
    const __m256 b0 = _mm256_loadu_ps(pack0 + p * bs);
    const __m256 b1 = _mm256_loadu_ps(pack1 + p * bs);
    const __m256 b2 = _mm256_loadu_ps(pack2 + p * bs);
    const __m256 b3 = _mm256_loadu_ps(pack3 + p * bs);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(t0, b0));
    a01 = _mm256_add_ps(a01, _mm256_mul_ps(t0, b1));
    a02 = _mm256_add_ps(a02, _mm256_mul_ps(t0, b2));
    a03 = _mm256_add_ps(a03, _mm256_mul_ps(t0, b3));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(t1, b0));
    a11 = _mm256_add_ps(a11, _mm256_mul_ps(t1, b1));
    a12 = _mm256_add_ps(a12, _mm256_mul_ps(t1, b2));
    a13 = _mm256_add_ps(a13, _mm256_mul_ps(t1, b3));
  }
  _mm256_storeu_ps(c0 + 0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
  _mm256_storeu_ps(c0 + 16, a02);
  _mm256_storeu_ps(c0 + 24, a03);
  _mm256_storeu_ps(c1 + 0, a10);
  _mm256_storeu_ps(c1 + 8, a11);
  _mm256_storeu_ps(c1 + 16, a12);
  _mm256_storeu_ps(c1 + 24, a13);
}

/// 1 x 4-tile microkernel (odd row remainder).
void kernel_1x4(const float* as0, int k, const float* pack0,
                const float* pack1, const float* pack2, const float* pack3,
                std::ptrdiff_t bs, float* c0) {
  __m256 a00 = _mm256_loadu_ps(c0 + 0), a01 = _mm256_loadu_ps(c0 + 8);
  __m256 a02 = _mm256_loadu_ps(c0 + 16), a03 = _mm256_loadu_ps(c0 + 24);
  for (int p = 0; p < k; ++p) {
    const __m256 t0 = _mm256_broadcast_ss(as0 + p);
    a00 = _mm256_add_ps(
        a00, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack0 + p * bs)));
    a01 = _mm256_add_ps(
        a01, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack1 + p * bs)));
    a02 = _mm256_add_ps(
        a02, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack2 + p * bs)));
    a03 = _mm256_add_ps(
        a03, _mm256_mul_ps(
                 t0, _mm256_loadu_ps(pack3 + p * bs)));
  }
  _mm256_storeu_ps(c0 + 0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
  _mm256_storeu_ps(c0 + 16, a02);
  _mm256_storeu_ps(c0 + 24, a03);
}

/// 2 x 1-tile microkernel (8-column groups past the last group of 4 tiles).
void kernel_2x1(const float* as0, const float* as1, int k, const float* pack0,
                std::ptrdiff_t bs, float* c0, float* c1) {
  __m256 a00 = _mm256_loadu_ps(c0);
  __m256 a10 = _mm256_loadu_ps(c1);
  for (int p = 0; p < k; ++p) {
    const __m256 b0 =
        _mm256_loadu_ps(pack0 + p * bs);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(_mm256_broadcast_ss(as0 + p), b0));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(_mm256_broadcast_ss(as1 + p), b0));
  }
  _mm256_storeu_ps(c0, a00);
  _mm256_storeu_ps(c1, a10);
}

void kernel_1x1(const float* as0, int k, const float* pack0,
                std::ptrdiff_t bs, float* c0) {
  __m256 a00 = _mm256_loadu_ps(c0);
  for (int p = 0; p < k; ++p) {
    a00 = _mm256_add_ps(
        a00, _mm256_mul_ps(
                 _mm256_broadcast_ss(as0 + p),
                 _mm256_loadu_ps(pack0 + p * bs)));
  }
  _mm256_storeu_ps(c0, a00);
}

/// Shared driver for gemm_nn / gemm_tn: pack B once, then sweep disjoint row
/// panels (in parallel for large problems, like the scalar backend). Tail
/// columns past the last full 8-wide tile read B directly with the same
/// ascending-p multiply-add sequence.
template <typename Access>
void avx2_gemm(const Access& access, int m, int n, int k, float alpha,
               const float* b, int ldb, float beta, float* c, int ldc) {
  obs::counter_add(obs::Counter::kGemmAvx2Calls, 1);
  const int tiles = n / 8;
  const std::int64_t flops =
      static_cast<std::int64_t>(m) * n * static_cast<std::int64_t>(k);
  const bool parallel = flops >= kParallelFlops;

  // Packing B costs one read+write of the whole operand, amortized over m/2
  // row-pair sweeps — a win only for tall C. Short C (the paper net's
  // conv-as-gemm shapes have m = cout = 8 or 16) reads B in place instead:
  // the microkernels take the B row stride as a parameter, and the packed
  // layout is just the bs == 8 special case. Either way every output element
  // sees identical values in identical order, so the choice cannot change
  // bits.
  const bool use_pack = m >= 32 && tiles > 0 && k > 0;
  std::vector<float>& pack = pack_scratch();
  const float* packed = b;
  std::ptrdiff_t bstride = ldb;
  std::ptrdiff_t tile_stride = 8;
  if (use_pack) {
    pack.resize(static_cast<std::size_t>(tiles) * k * 8);
    pack_b(n, k, b, ldb, pack.data(), parallel);
    packed = pack.data();
    bstride = 8;
    tile_stride = static_cast<std::ptrdiff_t>(k) * 8;
    obs::counter_add(obs::Counter::kKernelPackedBytes,
                     static_cast<std::int64_t>(tiles) * k * 8 *
                         static_cast<std::int64_t>(sizeof(float)));
  }
  for_each_row_panel(m, n, k, [&](int panel) {
    const int i0 = panel * kMB;
    const int i1 = std::min(m, i0 + kMB);
    scale_rows(i1 - i0, n, beta, c + static_cast<std::ptrdiff_t>(i0) * ldc,
               ldc);
    // Stage this panel's A rows prescaled by alpha: aip = alpha * a[i][p] is
    // the scalar kernel's single rounding, computed once per (i, p) here
    // instead of once per (i, p, column group) in the inner loops.
    std::vector<float>& ascaled = a_scratch();
    ascaled.resize(static_cast<std::size_t>(i1 - i0) *
                   static_cast<std::size_t>(k));
    for (int i = i0; i < i1; ++i) {
      float* row =
          ascaled.data() + static_cast<std::ptrdiff_t>(i - i0) * k;
      for (int p = 0; p < k; ++p) row[p] = alpha * access.at(i, p);
    }
    const auto arow = [&](int i) {
      return ascaled.data() + static_cast<std::ptrdiff_t>(i - i0) * k;
    };
    int jt = 0;
    for (; jt + 4 <= tiles; jt += 4) {
      const float* p0 = packed + jt * tile_stride;
      const float* p1 = p0 + tile_stride;
      const float* p2 = p1 + tile_stride;
      const float* p3 = p2 + tile_stride;
      float* ctile = c + jt * 8;
      int i = i0;
      for (; i + 2 <= i1; i += 2) {
        kernel_2x4(arow(i), arow(i + 1), k, p0, p1, p2, p3, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc,
                   ctile + static_cast<std::ptrdiff_t>(i + 1) * ldc);
      }
      if (i < i1) {
        kernel_1x4(arow(i), k, p0, p1, p2, p3, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc);
      }
    }
    for (; jt < tiles; ++jt) {
      const float* p0 = packed + jt * tile_stride;
      float* ctile = c + jt * 8;
      int i = i0;
      for (; i + 2 <= i1; i += 2) {
        kernel_2x1(arow(i), arow(i + 1), k, p0, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc,
                   ctile + static_cast<std::ptrdiff_t>(i + 1) * ldc);
      }
      if (i < i1) {
        kernel_1x1(arow(i), k, p0, bstride,
                   ctile + static_cast<std::ptrdiff_t>(i) * ldc);
      }
    }
    // Tail columns: unpacked B, same per-element operation sequence.
    for (int j = tiles * 8; j < n; ++j) {
      for (int i = i0; i < i1; ++i) {
        const float* as0 = arow(i);
        float accv = c[static_cast<std::ptrdiff_t>(i) * ldc + j];
        for (int p = 0; p < k; ++p) {
          accv += as0[p] * b[static_cast<std::ptrdiff_t>(p) * ldb + j];
        }
        c[static_cast<std::ptrdiff_t>(i) * ldc + j] = accv;
      }
    }
  });
}

void avx2_gemm_nn(int m, int n, int k, float alpha, const float* a, int lda,
                  const float* b, int ldb, float beta, float* c, int ldc) {
  avx2_gemm(NnAccess{a, lda}, m, n, k, alpha, b, ldb, beta, c, ldc);
}

void avx2_gemm_tn(int m, int n, int k, float alpha, const float* a, int lda,
                  const float* b, int ldb, float beta, float* c, int ldc) {
  avx2_gemm(TnAccess{a, lda}, m, n, k, alpha, b, ldb, beta, c, ldc);
}

// ---------------------------------------------------------------------------
// Fused 3x3 convolution (pad 1, stride 1 or 2)
// ---------------------------------------------------------------------------

/// Padded input planes: each channel is staged once as (h + 2) rows of
/// kPadSlack-extended width with the pad-1 halo materialized (replicated
/// edge pixels or zeros — the exact values im2col would produce), so the
/// compute loops need no bounds handling and vector loads may safely touch
/// the zeroed slack lanes the deinterleave discards.
constexpr int kPadSlack = 8;

std::vector<float>& conv_scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

void pack_padded_planes(const Conv3x3Args& args, float* pad, int wp) {
  const int h = args.h, w = args.w;
  for (int ch = 0; ch < args.cin; ++ch) {
    const float* plane =
        args.src + static_cast<std::ptrdiff_t>(ch) * h * w;
    float* dst = pad + static_cast<std::ptrdiff_t>(ch) * (h + 2) * wp;
    for (int r = -1; r <= h; ++r) {
      float* out = dst + static_cast<std::ptrdiff_t>(r + 1) * wp;
      const bool oob = r < 0 || r >= h;
      if (oob && !args.replicate) {
        for (int j = 0; j < wp; ++j) out[j] = 0.0f;
        continue;
      }
      const int ir = oob ? (r < 0 ? 0 : h - 1) : r;
      const float* in = plane + static_cast<std::ptrdiff_t>(ir) * w;
      out[0] = args.replicate ? in[0] : 0.0f;
      for (int j = 0; j < w; ++j) out[j + 1] = in[j];
      out[w + 1] = args.replicate ? in[w - 1] : 0.0f;
      for (int j = w + 2; j < wp; ++j) out[j] = 0.0f;
    }
  }
}

/// Load 8 outputs' worth of input pixels for one tap: contiguous for stride
/// 1; every other element (deinterleaved from 16 lanes) for stride 2.
template <int kStride>
__m256 load_taps(const float* q) {
  if constexpr (kStride == 1) {
    return _mm256_loadu_ps(q);
  } else {
    const __m256 v0 = _mm256_loadu_ps(q);
    const __m256 v1 = _mm256_loadu_ps(q + 8);
    const __m256 t = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    return _mm256_permutevar8x32_ps(
        t, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
  }
}

/// One output row for one output channel. Taps accumulate in ascending
/// (channel, ki, kj) order — the im2col column order — so every output
/// element's operation sequence matches the lowered gemm_nn bit for bit.
template <int kStride>
void conv_row(const Conv3x3Args& args, const float* pad, int wp,
              const float* wco, int oh, float* out) {
  const int wo = args.wo;
  const std::ptrdiff_t plane_stride =
      static_cast<std::ptrdiff_t>(args.h + 2) * wp;
  int ow = 0;
  for (; ow + 32 <= wo; ow += 32) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    const float* wtap = wco;
    for (int ch = 0; ch < args.cin; ++ch) {
      const float* chp = pad + ch * plane_stride;
      for (int ki = 0; ki < 3; ++ki) {
        const float* row =
            chp + static_cast<std::ptrdiff_t>(oh * kStride + ki) * wp;
        for (int kj = 0; kj < 3; ++kj) {
          const __m256 t = _mm256_set1_ps(*wtap++);
          const float* q = row + ow * kStride + kj;
          a0 = _mm256_add_ps(a0, _mm256_mul_ps(t, load_taps<kStride>(q)));
          a1 = _mm256_add_ps(
              a1, _mm256_mul_ps(t, load_taps<kStride>(q + 8 * kStride)));
          a2 = _mm256_add_ps(
              a2, _mm256_mul_ps(t, load_taps<kStride>(q + 16 * kStride)));
          a3 = _mm256_add_ps(
              a3, _mm256_mul_ps(t, load_taps<kStride>(q + 24 * kStride)));
        }
      }
    }
    _mm256_storeu_ps(out + ow + 0, a0);
    _mm256_storeu_ps(out + ow + 8, a1);
    _mm256_storeu_ps(out + ow + 16, a2);
    _mm256_storeu_ps(out + ow + 24, a3);
  }
  for (; ow + 8 <= wo; ow += 8) {
    __m256 a0 = _mm256_setzero_ps();
    const float* wtap = wco;
    for (int ch = 0; ch < args.cin; ++ch) {
      const float* chp = pad + ch * plane_stride;
      for (int ki = 0; ki < 3; ++ki) {
        const float* row =
            chp + static_cast<std::ptrdiff_t>(oh * kStride + ki) * wp;
        for (int kj = 0; kj < 3; ++kj) {
          const __m256 t = _mm256_set1_ps(*wtap++);
          const __m256 in = load_taps<kStride>(row + ow * kStride + kj);
          a0 = _mm256_add_ps(a0, _mm256_mul_ps(t, in));
        }
      }
    }
    _mm256_storeu_ps(out + ow, a0);
  }
  for (; ow < wo; ++ow) {
    float accv = 0.0f;
    const float* wtap = wco;
    for (int ch = 0; ch < args.cin; ++ch) {
      const float* chp = pad + ch * plane_stride;
      for (int ki = 0; ki < 3; ++ki) {
        const float* row =
            chp + static_cast<std::ptrdiff_t>(oh * kStride + ki) * wp;
        for (int kj = 0; kj < 3; ++kj) {
          accv += *wtap++ * row[ow * kStride + kj];
        }
      }
    }
    out[ow] = accv;
  }
}

void avx2_conv3x3(const Conv3x3Args& args) {
  obs::counter_add(obs::Counter::kConvFusedCalls, 1);
  const int wp = args.w + 2 + kPadSlack;
  std::vector<float>& pad = conv_scratch();
  pad.resize(static_cast<std::size_t>(args.cin) * (args.h + 2) * wp);
  pack_padded_planes(args, pad.data(), wp);
  obs::counter_add(
      obs::Counter::kKernelPackedBytes,
      static_cast<std::int64_t>(pad.size() * sizeof(float)));

  for (int co = 0; co < args.cout; ++co) {
    const float* wco = args.weights + static_cast<std::ptrdiff_t>(co) *
                                          args.cin * 9;
    float* out_plane =
        args.dst + static_cast<std::ptrdiff_t>(co) * args.ho * args.wo;
    for (int oh = 0; oh < args.ho; ++oh) {
      float* out = out_plane + static_cast<std::ptrdiff_t>(oh) * args.wo;
      if (args.stride == 1) {
        conv_row<1>(args, pad.data(), wp, wco, oh, out);
      } else {
        conv_row<2>(args, pad.data(), wp, wco, oh, out);
      }
    }
  }
}

const KernelTable kAvx2Table = {
    KernelBackend::kAvx2,
    avx2_gemm_nn,
    avx2_gemm_tn,
    avx2_conv3x3,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace pdnn::linalg::detail

#else  // !defined(__AVX2__)

namespace pdnn::linalg::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace pdnn::linalg::detail

#endif
