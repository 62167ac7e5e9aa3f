// AVX2 kernel backend: register-blocked GEMM microkernels over packed B
// panels, and a fused 3x3 convolution that skips im2col for the paper net's
// stride-1/stride-2 shapes. The fused conv has one microkernel at every grid
// width: a block of 4 output channels x 2 output rows (1 channel x 8 rows
// for the cout % 4 remainder) x 8 columns keeps 8 accumulators, and a masked
// store ends a row whose width is not a multiple of 8. Stride-2 input rows
// are split into even and odd columns when they are staged, so every tap
// load is 8 contiguous floats.
//
// Bit-identity with the scalar fallback is a hard contract (tests and the CI
// kernel-dispatch job memcmp the two backends): every output element
// accumulates its k terms in ascending order, each term as an explicit
// multiply (_mm256_mul_ps) then add (_mm256_add_ps) — the same two roundings
// the scalar loops perform — and the tree-wide -ffp-contract=off keeps
// the compiler from fusing the pair into an FMA. The
// speedup comes from keeping C tiles in ymm accumulators (the scalar kernel
// streams every C row through memory once per k step), from packed
// contiguous B panels, and — for conv — from skipping the 9x im2col
// materialization entirely; never from reassociating the sum.
#include "linalg/kernels/kernel_common.hpp"
#include "linalg/kernels/registry.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
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

/// Per-thread scratch for the alpha-scaled A panel of gemm_tn, or of gemm_nn
/// with alpha != 1 (each panel worker packs its own rows, so this is per
/// worker, not per gemm call).
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
    // instead of once per (i, p, column group) in the inner loops. A
    // row-major A with alpha 1 needs no staging: 1.0f * a is a, bit for bit,
    // so its rows are read in place.
    const float* arows = nullptr;
    std::ptrdiff_t astride = k;
    if constexpr (std::is_same_v<Access, NnAccess>) {
      if (alpha == 1.0f) {
        arows = access.a + static_cast<std::ptrdiff_t>(i0) * access.lda;
        astride = access.lda;
      }
    }
    if (arows == nullptr) {
      std::vector<float>& ascaled = a_scratch();
      ascaled.resize(static_cast<std::size_t>(i1 - i0) *
                     static_cast<std::size_t>(k));
      for (int i = i0; i < i1; ++i) {
        float* row =
            ascaled.data() + static_cast<std::ptrdiff_t>(i - i0) * k;
        for (int p = 0; p < k; ++p) row[p] = alpha * access.at(i, p);
      }
      arows = ascaled.data();
    }
    const auto arow = [&](int i) {
      return arows + static_cast<std::ptrdiff_t>(i - i0) * astride;
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

/// Zeroed floats after each run of padded columns (the row at stride 1,
/// each half row at stride 2). The loads of a partial last column block read
/// up to 7 floats past a run's end, into lanes that are never stored.
constexpr int kPadSlack = 8;

/// One fused call's staged input. Each channel is staged once as h + 2
/// padded rows of wp floats with the pad-1 halo materialized (replicated
/// edge pixels or zeros — the exact values im2col would produce), so the
/// compute loops need no bounds handling. At stride 1 padded column j sits
/// at slot j. At stride 2 the even columns fill the first half of the row
/// in order and the odd ones the second half, so at either stride the pixels
/// one tap reads for 8 consecutive outputs are 8 consecutive floats.
/// tap_offset holds, for tap t = (channel * 3 + ki) * 3 + kj, the slot of
/// its pixel for output (0, 0); output (oh, ow) adds oh * stride * wp + ow.
struct PaddedInput {
  std::vector<float> planes;
  std::vector<std::ptrdiff_t> tap_offset;
  int wp = 0;  ///< floats per padded row
};

PaddedInput& conv_scratch() {
  thread_local PaddedInput buffer;
  return buffer;
}

void pack_padded_planes(const Conv3x3Args& args, PaddedInput& in) {
  const int h = args.h, w = args.w;
  // Stride 2: the w + 2 padded columns are (w + 3) / 2 even ones and
  // (w + 2) / 2 odd ones; each half row has room for the larger count.
  const int half = (w + 3) / 2 + kPadSlack;
  const int wp = args.stride == 1 ? w + 2 + kPadSlack : 2 * half;
  const std::ptrdiff_t plane_stride = static_cast<std::ptrdiff_t>(h + 2) * wp;
  in.wp = wp;
  in.planes.resize(static_cast<std::size_t>(args.cin * plane_stride));
  in.tap_offset.resize(static_cast<std::size_t>(args.cin) * 9);
  const __m256i pairs = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  for (int ch = 0; ch < args.cin; ++ch) {
    const float* plane =
        args.src + static_cast<std::ptrdiff_t>(ch) * h * w;
    float* dst = in.planes.data() + ch * plane_stride;
    for (int r = -1; r <= h; ++r) {
      float* out = dst + static_cast<std::ptrdiff_t>(r + 1) * wp;
      const bool oob = r < 0 || r >= h;
      if (oob && !args.replicate) {
        std::fill(out, out + wp, 0.0f);
        continue;
      }
      const int ir = oob ? (r < 0 ? 0 : h - 1) : r;
      const float* row = plane + static_cast<std::ptrdiff_t>(ir) * w;
      const float left = args.replicate ? row[0] : 0.0f;
      const float right = args.replicate ? row[w - 1] : 0.0f;
      if (args.stride == 1) {
        out[0] = left;
        std::copy(row, row + w, out + 1);
        out[w + 1] = right;
        std::fill(out + w + 2, out + wp, 0.0f);
        continue;
      }
      // Padded column j + 1 is row[j]: even j go to the odd half, odd j to
      // the even half after the left halo.
      float* even = out;
      float* odd = out + half;
      even[0] = left;
      int j = 0;
      for (; j + 16 <= w; j += 16) {
        const __m256 v0 = _mm256_loadu_ps(row + j);
        const __m256 v1 = _mm256_loadu_ps(row + j + 8);
        _mm256_storeu_ps(odd + j / 2, _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0)), pairs));
        _mm256_storeu_ps(even + 1 + j / 2, _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1)), pairs));
      }
      for (; j < w; ++j) (j % 2 == 0 ? odd : even + 1)[j / 2] = row[j];
      (w % 2 == 0 ? odd : even + 1)[w / 2] = right;
      std::fill(even + (w + 3) / 2, odd, 0.0f);
      std::fill(odd + (w + 2) / 2, out + wp, 0.0f);
    }
    for (int tap = 0; tap < 9; ++tap) {
      const int kj = tap % 3;
      in.tap_offset[static_cast<std::size_t>(ch) * 9 + tap] =
          ch * plane_stride + tap / 3 * wp +
          (args.stride == 1 ? kj : kj / 2 + kj % 2 * half);
    }
  }
}

/// The register block: output channels [co, co + kChannels) x output rows
/// [oh, oh + kRows), 8 columns at a time from column 0 to wo. Each of the
/// kChannels * kRows accumulators starts at +0.0f and takes its taps in
/// ascending (channel, ki, kj) order — the im2col column order — as a
/// multiply then an add, so every output element repeats the lowered
/// gemm_nn's operation sequence bit for bit. A tap's input vector is loaded
/// once per row and shared by all kChannels channels. The last column block
/// may be partial: a masked store keeps its lanes past wo out of the output.
template <int kChannels, int kRows>
void conv_block(const Conv3x3Args& args, const PaddedInput& in, int co,
                int oh) {
  const int taps = args.cin * 9;
  const float* wco = args.weights + static_cast<std::ptrdiff_t>(co) * taps;
  const std::ptrdiff_t out_plane =
      static_cast<std::ptrdiff_t>(args.ho) * args.wo;
  float* out = args.dst + co * out_plane +
               static_cast<std::ptrdiff_t>(oh) * args.wo;
  const std::ptrdiff_t row_step =
      static_cast<std::ptrdiff_t>(args.stride) * in.wp;
  const float* window = in.planes.data() + oh * row_step;
  const std::ptrdiff_t* tap_offset = in.tap_offset.data();
  for (int ow = 0; ow < args.wo; ow += 8) {
    __m256 acc[kChannels][kRows];
    for (int c = 0; c < kChannels; ++c) {
      for (int r = 0; r < kRows; ++r) acc[c][r] = _mm256_setzero_ps();
    }
    for (int t = 0; t < taps; ++t) {
      const float* q = window + ow + tap_offset[t];
      __m256 x[kRows];
      for (int r = 0; r < kRows; ++r) x[r] = _mm256_loadu_ps(q + r * row_step);
      for (int c = 0; c < kChannels; ++c) {
        const __m256 wt = _mm256_broadcast_ss(wco + c * taps + t);
        for (int r = 0; r < kRows; ++r) {
          acc[c][r] = _mm256_add_ps(acc[c][r], _mm256_mul_ps(wt, x[r]));
        }
      }
    }
    const int width = args.wo - ow;
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(width), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (int c = 0; c < kChannels; ++c) {
      for (int r = 0; r < kRows; ++r) {
        float* dst = out + c * out_plane +
                     static_cast<std::ptrdiff_t>(r) * args.wo + ow;
        if (width >= 8) {
          _mm256_storeu_ps(dst, acc[c][r]);
        } else {
          _mm256_maskstore_ps(dst, mask, acc[c][r]);
        }
      }
    }
  }
}

/// Output rows [oh, ho) of channels [co, co + kChannels): blocks of kRows
/// rows, then what is left in blocks of kRows / 2, kRows / 4, ..., 1.
template <int kChannels, int kRows>
void conv_rows(const Conv3x3Args& args, const PaddedInput& in, int co,
               int oh) {
  for (; oh + kRows <= args.ho; oh += kRows) {
    conv_block<kChannels, kRows>(args, in, co, oh);
  }
  if constexpr (kRows > 1) conv_rows<kChannels, kRows / 2>(args, in, co, oh);
}

/// Every output: 4-channel x 2-row blocks, then the cout % 4 remaining
/// channels one at a time in 8-row blocks. Either way a block holds 8
/// accumulators, enough independent add chains to keep both FP ports busy.
void conv_planes(const Conv3x3Args& args, const PaddedInput& in) {
  const int quads = args.cout / 4 * 4;
  for (int co = 0; co < quads; co += 4) conv_rows<4, 2>(args, in, co, 0);
  for (int co = quads; co < args.cout; ++co) conv_rows<1, 8>(args, in, co, 0);
}

void avx2_conv3x3(const Conv3x3Args& args) {
  obs::counter_add(obs::Counter::kConvFusedCalls, 1);
  PaddedInput& in = conv_scratch();
  pack_padded_planes(args, in);
  obs::counter_add(
      obs::Counter::kKernelPackedBytes,
      static_cast<std::int64_t>(in.planes.size() * sizeof(float)));
  conv_planes(args, in);
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
