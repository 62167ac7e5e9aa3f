// Kernel-registry tests: backend selection/forcing semantics, and the
// determinism contract — the scalar and AVX2 backends must produce
// bit-identical results for every dispatched kernel, at any thread count,
// through any call path (raw gemm, conv lowering, and end-to-end training).
// The conv and deconv backward passes are also pinned to an element-by-element
// reference of their arithmetic, so a change of summation order fails even
// when both backends share it. The suite name is "Kernels" so the TSan CI
// leg's regex picks it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/conv.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pdnn;
using linalg::KernelBackend;
using nn::Tensor;
using nn::Var;

/// Force a backend for one scope; always restores the prior selection state.
class ForcedBackend {
 public:
  explicit ForcedBackend(KernelBackend backend) {
    linalg::force_backend(backend);
  }
  ~ForcedBackend() { linalg::clear_forced_backend(); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;
};

/// Pool size for one scope; restores the default size on exit.
class PoolThreads {
 public:
  explicit PoolThreads(int threads) {
    util::ThreadPool::set_global_threads(threads);
  }
  ~PoolThreads() { util::ThreadPool::set_global_threads(0); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;
};

bool avx2_available() {
  return linalg::backend_supported(KernelBackend::kAvx2);
}

#define SKIP_WITHOUT_AVX2()                                              \
  do {                                                                   \
    if (!avx2_available()) {                                             \
      GTEST_SKIP() << "AVX2 backend not supported on this machine";      \
    }                                                                    \
  } while (0)

std::vector<float> random_vec(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Selection semantics
// ---------------------------------------------------------------------------

TEST(Kernels, BackendNameParseRoundtrip) {
  EXPECT_STREQ("scalar", linalg::backend_name(KernelBackend::kScalar));
  EXPECT_STREQ("avx2", linalg::backend_name(KernelBackend::kAvx2));
  EXPECT_EQ(KernelBackend::kScalar, linalg::parse_backend("scalar"));
  EXPECT_EQ(KernelBackend::kAvx2, linalg::parse_backend("avx2"));
}

TEST(Kernels, ParseRejectsUnknownBackend) {
  EXPECT_THROW(linalg::parse_backend("sse2"), util::CheckError);
  EXPECT_THROW(linalg::parse_backend(""), util::CheckError);
  EXPECT_THROW(linalg::parse_backend("AVX2"), util::CheckError);
}

TEST(Kernels, SupportedBackendNamesListsEveryUsableBackend) {
  const std::string names = linalg::supported_backend_names();
  EXPECT_NE(names.find("scalar"), std::string::npos);
  if (avx2_available()) {
    EXPECT_NE(names.find("avx2"), std::string::npos);
  } else {
    EXPECT_EQ(names.find("avx2"), std::string::npos);
  }
}

TEST(Kernels, ParseErrorEnumeratesValidBackendNames) {
  // An operator typing a bad --kernel/PDNN_KERNEL value gets the valid set
  // in the error, not just a rejection.
  try {
    linalg::parse_backend("sse2");
    FAIL() << "parse_backend accepted 'sse2'";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
    EXPECT_NE(what.find("avx2"), std::string::npos) << what;
    EXPECT_NE(what.find(linalg::supported_backend_names()), std::string::npos)
        << what;
  }
}

TEST(Kernels, ScalarBackendIsAlwaysSupported) {
  EXPECT_TRUE(linalg::backend_compiled(KernelBackend::kScalar));
  EXPECT_TRUE(linalg::backend_supported(KernelBackend::kScalar));
}

TEST(Kernels, ForcedBackendWinsAndClears) {
  {
    ForcedBackend forced(KernelBackend::kScalar);
    EXPECT_EQ(KernelBackend::kScalar, linalg::active_backend());
    EXPECT_EQ(KernelBackend::kScalar, linalg::kernels().backend);
  }
  if (avx2_available()) {
    ForcedBackend forced(KernelBackend::kAvx2);
    EXPECT_EQ(KernelBackend::kAvx2, linalg::active_backend());
    EXPECT_EQ(KernelBackend::kAvx2, linalg::kernels().backend);
  }
}

TEST(Kernels, ForcingUnsupportedBackendThrows) {
  // Only exercisable where the probe says no — there is no way to make a
  // supported backend unsupported from a test.
  if (avx2_available()) {
    GTEST_SKIP() << "AVX2 is supported here; the error path needs hardware "
                    "without it";
  }
  EXPECT_THROW(linalg::force_backend(KernelBackend::kAvx2), util::CheckError);
}

TEST(Kernels, ScalarTableHasNoFusedConvPath) {
  ForcedBackend forced(KernelBackend::kScalar);
  linalg::Conv3x3Args args;  // null pointers: must not be touched
  args.cin = 1;
  args.h = args.w = args.ho = args.wo = 4;
  args.cout = 1;
  args.stride = 1;
  EXPECT_FALSE(linalg::conv3x3_fused(args));
}

// ---------------------------------------------------------------------------
// GEMM bit-identity across backends
// ---------------------------------------------------------------------------

using GemmEntry = void (*)(int, int, int, float, const float*, int,
                           const float*, int, float, float*, int);

/// Run one gemm under a forced backend, returning the C matrix.
std::vector<float> run_gemm(GemmEntry fn, KernelBackend backend, int m, int n,
                            int k, float alpha, float beta, bool transposed_a) {
  ForcedBackend forced(backend);
  const std::size_t a_size =
      static_cast<std::size_t>(transposed_a ? k : m) * (transposed_a ? m : k);
  const std::vector<float> a = random_vec(a_size, 101);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(k) * n, 202);
  std::vector<float> c = random_vec(static_cast<std::size_t>(m) * n, 303);
  const int lda = transposed_a ? m : k;
  fn(m, n, k, alpha, a.data(), lda, b.data(), n, beta, c.data(), n);
  return c;
}

struct GemmShape {
  int m, n, k;
};

// Shapes chosen to cover: the paper net's conv-as-gemm geometry (8 x owo x
// 72), full 4-tile groups, lone tiles, scalar tail columns (n % 8 != 0), odd
// row remainders, multi-panel m (> 64), and degenerate edges.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 8, 3},    {2, 32, 5},   {3, 9, 7},    {8, 64, 72},
    {8, 100, 72}, {16, 33, 72}, {5, 40, 11},  {65, 48, 20}, {70, 70, 70},
    {64, 7, 9},  {13, 128, 1},
};

TEST(Kernels, GemmNnBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const GemmShape& s : kShapes) {
    for (const float alpha : {1.0f, 0.5f, -2.0f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        const auto scalar = run_gemm(linalg::gemm_nn, KernelBackend::kScalar,
                                     s.m, s.n, s.k, alpha, beta, false);
        const auto avx2 = run_gemm(linalg::gemm_nn, KernelBackend::kAvx2, s.m,
                                   s.n, s.k, alpha, beta, false);
        EXPECT_TRUE(bitwise_equal(scalar, avx2))
            << "gemm_nn " << s.m << "x" << s.n << "x" << s.k << " alpha "
            << alpha << " beta " << beta;
      }
    }
  }
}

TEST(Kernels, GemmTnBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const GemmShape& s : kShapes) {
    for (const float alpha : {1.0f, -0.75f}) {
      for (const float beta : {0.0f, 1.0f}) {
        const auto scalar = run_gemm(linalg::gemm_tn, KernelBackend::kScalar,
                                     s.m, s.n, s.k, alpha, beta, true);
        const auto avx2 = run_gemm(linalg::gemm_tn, KernelBackend::kAvx2, s.m,
                                   s.n, s.k, alpha, beta, true);
        EXPECT_TRUE(bitwise_equal(scalar, avx2))
            << "gemm_tn " << s.m << "x" << s.n << "x" << s.k << " alpha "
            << alpha << " beta " << beta;
      }
    }
  }
}

TEST(Kernels, GemmNtBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  // The product with a transposed B, C (m x n) += A (m x k) * B^T with B
  // n x k, is the convolutions' weight gradient; it runs on gemm_nn through
  // a transposed operand. Both backends must give the bits of each element
  // summed over p in ascending order from +0.0f, then added to C once.
  for (const GemmShape& s : kShapes) {
    const auto size = [](int rows, int cols) {
      return static_cast<std::size_t>(rows) * cols;
    };
    const std::vector<float> a = random_vec(size(s.m, s.k), 101);
    const std::vector<float> b = random_vec(size(s.n, s.k), 202);
    const std::vector<float> c0 = random_vec(size(s.m, s.n), 303);
    std::vector<float> want = c0;
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        float sum = 0.0f;
        for (int p = 0; p < s.k; ++p) {
          sum += a[static_cast<std::size_t>(i) * s.k + p] *
                 b[static_cast<std::size_t>(j) * s.k + p];
        }
        want[static_cast<std::size_t>(i) * s.n + j] += sum;
      }
    }
    for (const KernelBackend backend :
         {KernelBackend::kScalar, KernelBackend::kAvx2}) {
      ForcedBackend forced(backend);
      std::vector<float> c = c0;
      nn::accumulate_weight_grad(s.m, s.n, s.k, a.data(), b.data(), c.data());
      EXPECT_TRUE(bitwise_equal(want, c))
          << linalg::backend_name(backend) << " " << s.m << "x" << s.n << "x"
          << s.k;
    }
  }
}

TEST(Kernels, GemmPropagatesNanThroughZeroTerms) {
  // 0 * NaN must contribute NaN in both backends (the BLAS semantics the
  // scalar kernels deliberately preserve by never zero-skipping).
  SKIP_WITHOUT_AVX2();
  const int m = 4, n = 40, k = 8;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k) * n, 7);
  b[3] = std::nanf("");
  std::vector<float> scalar_c(static_cast<std::size_t>(m) * n, 1.0f);
  std::vector<float> avx2_c = scalar_c;
  {
    ForcedBackend forced(KernelBackend::kScalar);
    linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                    scalar_c.data(), n);
  }
  {
    ForcedBackend forced(KernelBackend::kAvx2);
    linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                    avx2_c.data(), n);
  }
  EXPECT_TRUE(std::isnan(scalar_c[3]));
  EXPECT_TRUE(bitwise_equal(scalar_c, avx2_c));
}

// ---------------------------------------------------------------------------
// Per-backend thread-count bit-stability
// ---------------------------------------------------------------------------

std::vector<float> run_gemm_with_threads(KernelBackend backend, int threads) {
  util::ThreadPool::set_global_threads(threads);
  // 128^3 = 2M madds: above the parallel threshold, two row panels.
  const auto c = run_gemm(linalg::gemm_nn, backend, 128, 128, 128, 1.0f,
                          0.5f, false);
  util::ThreadPool::set_global_threads(0);
  return c;
}

TEST(Kernels, ScalarGemmBitStableAcrossThreadCounts) {
  const auto one = run_gemm_with_threads(KernelBackend::kScalar, 1);
  const auto four = run_gemm_with_threads(KernelBackend::kScalar, 4);
  EXPECT_TRUE(bitwise_equal(one, four));
}

TEST(Kernels, Avx2GemmBitStableAcrossThreadCounts) {
  SKIP_WITHOUT_AVX2();
  const auto one = run_gemm_with_threads(KernelBackend::kAvx2, 1);
  const auto four = run_gemm_with_threads(KernelBackend::kAvx2, 4);
  EXPECT_TRUE(bitwise_equal(one, four));
}

// ---------------------------------------------------------------------------
// Fused conv vs im2col lowering, through the public conv2d
// ---------------------------------------------------------------------------

struct ConvCase {
  int cin, cout, h, w, stride;
  nn::PadMode mode;
};

/// Square planes whose output is every width the paper's grids (20, 28) and
/// U-Net levels (5-14) produce, at both strides and in both pad modes, for
/// each channel pairing: 1 and 3 output channels run the one-channel blocks
/// alone, 8 and 16 the four-channel blocks. The widths leave masked tails of
/// 2 to 7 columns, and the heights odd rows and every remainder of 4. Then
/// planes where the halo dominates, non-square planes and widths past 32.
std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  constexpr int kChannels[][2] = {{1, 8}, {8, 16}, {32, 3}, {16, 1}};
  for (const int wo : {5, 7, 10, 14, 20, 28}) {
    for (const int stride : {1, 2}) {
      const int w = stride == 1 ? wo : 2 * wo - wo % 2;
      for (const nn::PadMode mode :
           {nn::PadMode::kReplicate, nn::PadMode::kZero}) {
        for (const auto& ch : kChannels) {
          cases.push_back({ch[0], ch[1], w, w, stride, mode});
        }
      }
    }
  }
  const ConvCase odd_shapes[] = {
      {1, 2, 3, 3, 1, nn::PadMode::kReplicate},
      {1, 2, 4, 3, 2, nn::PadMode::kZero},
      {2, 4, 7, 5, 1, nn::PadMode::kZero},
      {3, 5, 16, 16, 2, nn::PadMode::kReplicate},
      {8, 8, 32, 33, 1, nn::PadMode::kReplicate},
      {4, 3, 5, 40, 1, nn::PadMode::kZero},
      {8, 16, 64, 64, 2, nn::PadMode::kReplicate},
  };
  cases.insert(cases.end(), std::begin(odd_shapes), std::end(odd_shapes));
  return cases;
}

/// One conv forward under a forced backend; every input index in `nan_at` is
/// set to NaN first.
std::vector<float> run_conv(const ConvCase& cc, KernelBackend backend,
                            int batch,
                            const std::vector<std::int64_t>& nan_at = {}) {
  ForcedBackend forced(backend);
  util::Rng rng(29);
  nn::Conv2d conv(cc.cin, cc.cout, 3, cc.stride, 1, cc.mode, rng);
  Tensor x({batch, cc.cin, cc.h, cc.w});
  util::Rng data_rng(31);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.normal());
  }
  for (const std::int64_t i : nan_at) x.data()[i] = std::nanf("");
  nn::NoGradGuard guard;
  const Var y = conv.forward(Var(x));
  return std::vector<float>(y.value().data(),
                            y.value().data() + y.value().numel());
}

TEST(Kernels, ConvForwardBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  // Batch 1 runs one fused call; batch 3 fans the samples out over the pool.
  for (const int threads : {1, 4}) {
    PoolThreads pool(threads);
    for (const ConvCase& cc : conv_cases()) {
      for (const int batch : {1, 3}) {
        const auto scalar = run_conv(cc, KernelBackend::kScalar, batch);
        const auto avx2 = run_conv(cc, KernelBackend::kAvx2, batch);
        EXPECT_TRUE(bitwise_equal(scalar, avx2))
            << cc.cin << "->" << cc.cout << " " << cc.h << "x" << cc.w
            << " stride " << cc.stride
            << (cc.mode == nn::PadMode::kReplicate ? " replicate" : " zero")
            << " batch " << batch << ", " << threads << " threads";
      }
    }
  }
}

TEST(Kernels, ConvForwardNanBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  // Width 11 leaves a masked tail block: columns 8-10 at stride 1, and all 6
  // output columns at stride 2. One NaN sits in a tail column; the other at
  // the top-right corner, where replicate padding copies it into the top
  // halo row and into the right halo that the tail's unstored lanes read.
  // NaN must reach exactly the outputs the im2col lowering gives it.
  for (const nn::PadMode mode :
       {nn::PadMode::kReplicate, nn::PadMode::kZero}) {
    for (const int stride : {1, 2}) {
      const ConvCase cc = {3, 5, 9, 11, stride, mode};
      const std::int64_t plane = static_cast<std::int64_t>(cc.h) * cc.w;
      const std::vector<std::int64_t> nan_at = {
          plane + 4 * cc.w + (cc.w - 2),  // channel 1, row 4, a tail column
          2 * plane + (cc.w - 1),         // channel 2, row 0, last column
      };
      const auto scalar = run_conv(cc, KernelBackend::kScalar, 1, nan_at);
      const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 1, nan_at);
      const auto is_nan = [](float v) { return std::isnan(v); };
      EXPECT_TRUE(std::any_of(scalar.begin(), scalar.end(), is_nan));
      EXPECT_FALSE(std::all_of(scalar.begin(), scalar.end(), is_nan));
      EXPECT_TRUE(bitwise_equal(scalar, avx2))
          << "stride " << stride
          << (mode == nn::PadMode::kReplicate ? " replicate" : " zero");
    }
  }
}

// ---------------------------------------------------------------------------
// Conv backward bits against a reference of the lowered arithmetic
// ---------------------------------------------------------------------------

/// Flat index of the image pixel that an im2col entry reads at (ih, iw):
/// clamped under replication padding, -1 when zero padding reads outside.
std::int64_t tap_pixel(int ih, int iw, int h, int w, bool replicate) {
  if (replicate) {
    ih = std::clamp(ih, 0, h - 1);
    iw = std::clamp(iw, 0, w - 1);
  } else if (ih < 0 || ih >= h || iw < 0 || iw >= w) {
    return -1;
  }
  return static_cast<std::int64_t>(ih) * w + iw;
}

/// A 3x3, pad-1 lowering: column entry (q, p) of a sample reads image pixel
/// pixel[q * grid + p] of channel q / 9, or nothing when that is -1. The
/// image is h x w; the column grid (one entry per p) is gh x gw.
struct Lowering {
  std::int64_t grid = 0;
  std::vector<std::int64_t> pixel;
};

Lowering lower_3x3(int channels, int h, int w, int gh, int gw, int stride,
                   bool replicate) {
  Lowering low;
  low.grid = static_cast<std::int64_t>(gh) * gw;
  for (int q = 0; q < channels * 9; ++q) {
    const int ki = q / 3 % 3, kj = q % 3;
    for (int oh = 0; oh < gh; ++oh) {
      const int ih = oh * stride - 1 + ki;
      for (int ow = 0; ow < gw; ++ow) {
        const int iw = ow * stride - 1 + kj;
        low.pixel.push_back(tap_pixel(ih, iw, h, w, replicate));
      }
    }
  }
  return low;
}

struct ConvGrads {
  std::vector<float> gx, gw, gb;
};

bool grads_equal(const ConvGrads& a, const ConvGrads& b) {
  return bitwise_equal(a.gx, b.gx) && bitwise_equal(a.gw, b.gw) &&
         bitwise_equal(a.gb, b.gb);
}

ConvGrads zero_grads(const Tensor& x, const Tensor& w, int bias) {
  const auto zeros = [](std::int64_t n) {
    return std::vector<float>(static_cast<std::size_t>(n), 0.0f);
  };
  return {zeros(x.numel()), zeros(w.numel()), zeros(bias)};
}

/// The batch reduction both backward passes share: samples fold into a
/// fixed number of chunk partials, which fold into the gradients in chunk
/// order. The bias partial of a sample is its double-precision pixel sum.
/// `weight_sample(b, dw)` adds sample b's weight gradient into a partial.
template <typename WeightSample>
void reduce_batch(int n, int channels, std::int64_t pixels, const float* gy,
                  std::int64_t wsz, const WeightSample& weight_sample,
                  ConvGrads& g) {
  const std::int64_t chunks = util::reduction_chunks(n);
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    const util::ChunkRange r = util::reduction_range(n, chunks, ci);
    std::vector<float> db(static_cast<std::size_t>(channels), 0.0f);
    std::vector<float> dw(static_cast<std::size_t>(wsz), 0.0f);
    for (std::int64_t b = r.begin; b < r.end; ++b) {
      for (int co = 0; co < channels; ++co) {
        const float* row = gy + (b * channels + co) * pixels;
        double acc = 0.0;
        for (std::int64_t i = 0; i < pixels; ++i) acc += row[i];
        db[co] += static_cast<float>(acc);
      }
      weight_sample(b, dw.data());
    }
    for (int co = 0; co < channels; ++co) g.gb[co] += db[co];
    for (std::int64_t i = 0; i < wsz; ++i) g.gw[i] += dw[i];
  }
}

/// conv2d's gradients (3x3, pad 1) computed element by element:
///   * each dW element sums gy * column over the output pixels in ascending
///     order from +0.0f, and that sum is added to the chunk partial;
///   * dX scatters each column entry, itself a sum over output channels in
///     ascending order from +0.0f, into its (clamped) pixel, column by
///     column and pixel by pixel in ascending order.
ConvGrads reference_conv_grads(const Tensor& x, const Tensor& w,
                               const Tensor& gy, int stride, nn::PadMode mode) {
  const bool replicate = mode == nn::PadMode::kReplicate;
  const int n = x.n(), cin = x.c(), h = x.h(), wd = x.w();
  const int cout = w.n(), ckk = cin * 9;
  const Lowering low = lower_3x3(cin, h, wd, gy.h(), gy.w(), stride, replicate);
  const std::int64_t owo = low.grid, hw = static_cast<std::int64_t>(h) * wd;
  const auto column = [&](std::int64_t b, int q, std::int64_t p) {
    const std::int64_t px = low.pixel[q * owo + p];
    return px < 0 ? 0.0f : x.data()[(b * cin + q / 9) * hw + px];
  };
  ConvGrads g = zero_grads(x, w, cout);
  const auto weight_sample = [&](std::int64_t b, float* dw) {
    for (int co = 0; co < cout; ++co) {
      const float* gyr = gy.data() + (b * cout + co) * owo;
      for (int q = 0; q < ckk; ++q) {
        float sum = 0.0f;
        for (std::int64_t p = 0; p < owo; ++p) sum += gyr[p] * column(b, q, p);
        dw[co * ckk + q] += sum;
      }
    }
  };
  reduce_batch(n, cout, owo, gy.data(), w.numel(), weight_sample, g);
  for (std::int64_t b = 0; b < n; ++b) {
    for (int q = 0; q < ckk; ++q) {
      float* plane = g.gx.data() + (b * cin + q / 9) * hw;
      for (std::int64_t p = 0; p < owo; ++p) {
        float dcol = 0.0f;
        for (int co = 0; co < cout; ++co) {
          dcol += w.data()[co * ckk + q] * gy.data()[(b * cout + co) * owo + p];
        }
        const std::int64_t px = low.pixel[q * owo + p];
        if (px >= 0) plane[px] += dcol;
      }
    }
  }
  return g;
}

/// conv_transpose2d's gradients (3x3, pad 1), element by element over the
/// zero-padded lowering of gy onto the input grid:
///   * each dW element sums x * column over the input pixels in ascending
///     order from +0.0f, and that sum is added to the chunk partial;
///   * each dX element accumulates W * column over the columns in ascending
///     order, starting from its zeroed gradient.
ConvGrads reference_deconv_grads(const Tensor& x, const Tensor& w,
                                 const Tensor& gy, int stride) {
  const int n = x.n(), cin = x.c(), h = x.h(), wd = x.w();
  const int cout = w.c(), ckk = cout * 9;
  const Lowering low = lower_3x3(cout, gy.h(), gy.w(), h, wd, stride, false);
  const std::int64_t hw = low.grid;
  const std::int64_t out_hw = static_cast<std::int64_t>(gy.h()) * gy.w();
  const auto column = [&](std::int64_t b, int q, std::int64_t p) {
    const std::int64_t px = low.pixel[q * hw + p];
    return px < 0 ? 0.0f : gy.data()[(b * cout + q / 9) * out_hw + px];
  };
  ConvGrads g = zero_grads(x, w, cout);
  const auto weight_sample = [&](std::int64_t b, float* dw) {
    for (int ci = 0; ci < cin; ++ci) {
      const float* xr = x.data() + (b * cin + ci) * hw;
      for (int q = 0; q < ckk; ++q) {
        float sum = 0.0f;
        for (std::int64_t p = 0; p < hw; ++p) sum += xr[p] * column(b, q, p);
        dw[ci * ckk + q] += sum;
      }
    }
  };
  reduce_batch(n, cout, out_hw, gy.data(), w.numel(), weight_sample, g);
  for (std::int64_t b = 0; b < n; ++b) {
    for (int ci = 0; ci < cin; ++ci) {
      float* gxr = g.gx.data() + (b * cin + ci) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        float acc = gxr[p];
        for (int q = 0; q < ckk; ++q) {
          acc += w.data()[ci * ckk + q] * column(b, q, p);
        }
        gxr[p] = acc;
      }
    }
  }
  return g;
}

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// Run op's backward from the output gradient gy under every usable backend
/// at 1 and 4 pool threads; the gradients it leaves on x, w and b must
/// memcmp-equal `want` each time.
template <typename Op>
void expect_backward_bits(const Op& op, const Tensor& x, const Tensor& w,
                          const Tensor& b, const Tensor& gy,
                          const ConvGrads& want) {
  const auto values = [](const Var& v) {
    const Tensor& t = v.grad();
    return std::vector<float>(t.data(), t.data() + t.numel());
  };
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (avx2_available()) backends.push_back(KernelBackend::kAvx2);
  for (const KernelBackend backend : backends) {
    for (const int threads : {1, 4}) {
      ForcedBackend forced(backend);
      PoolThreads pool(threads);
      Var vx(x.clone(), true), vw(w.clone(), true), vb(b.clone(), true);
      const Var y = op(vx, vw, vb);
      y.node()->grad = gy.clone();
      y.node()->backward_op(*y.node());
      const ConvGrads got{values(vx), values(vw), values(vb)};
      EXPECT_TRUE(grads_equal(want, got))
          << linalg::backend_name(backend) << ", " << threads << " threads";
    }
  }
}

// The lowering widths the paper's grids and U-Net levels produce, plus the
// degenerate ones where the halo covers most of a row.
constexpr int kGradWidths[] = {1, 2, 3, 5, 7, 10, 14, 20, 28, 32};

struct GradChannels {
  int cin, cout, batch;
};

// Every count appears as input and as output channels: 1 (the fusion
// subnet's ends), 8/16/32 (the paper net's widths) and 49 (a bump count, the
// distance subnet's input). Batch 1 lets the weight-gradient gemm fan out
// over the pool; batch 2 folds two chunk partials.
constexpr GradChannels kGradChannels[] = {
    {1, 8, 2}, {8, 16, 1}, {16, 32, 2}, {32, 49, 1}, {49, 1, 2}};

TEST(Kernels, Conv2dBackwardMatchesReferenceArithmetic) {
  for (const int wo : kGradWidths) {
    for (const int stride : {1, 2}) {
      for (const bool replicate : {true, false}) {
        // Five output rows: top halo, interior and bottom halo rows.
        const int h = stride == 1 ? 5 : 10;
        const int w = stride == 1 ? wo : 2 * wo - wo % 2;
        const nn::PadMode mode =
            replicate ? nn::PadMode::kReplicate : nn::PadMode::kZero;
        for (const GradChannels& ch : kGradChannels) {
          SCOPED_TRACE(testing::Message()
                       << "conv2d " << ch.cin << "->" << ch.cout << " batch "
                       << ch.batch << " wo " << wo << " stride " << stride
                       << (replicate ? " replicate" : " zero"));
          util::Rng rng(1000 * wo + 10 * stride + ch.cin);
          const Tensor x = random_tensor({ch.batch, ch.cin, h, w}, rng);
          const Tensor wt = random_tensor({ch.cout, ch.cin, 3, 3}, rng);
          const Tensor b = random_tensor({ch.cout}, rng);
          const Tensor gy = random_tensor({ch.batch, ch.cout, 5, wo}, rng);
          const auto op = [&](const Var& vx, const Var& vw, const Var& vb) {
            return nn::conv2d(vx, vw, vb, stride, 1, mode);
          };
          const ConvGrads want = reference_conv_grads(x, wt, gy, stride, mode);
          expect_backward_bits(op, x, wt, b, gy, want);
        }
      }
    }
  }
}

TEST(Kernels, ConvTranspose2dBackwardMatchesReferenceArithmetic) {
  // The deconv lowers its output gradient onto its input grid, so the input
  // width is the lowering width here. Stride 2 is the paper net's upsampler
  // (output padding 1); stride 1 keeps the size.
  for (const int w : kGradWidths) {
    for (const int stride : {1, 2}) {
      const int out_pad = stride - 1;
      const int h = 5;
      const int ho = nn::conv_transpose_out_size(h, 3, stride, 1, out_pad);
      const int wo = nn::conv_transpose_out_size(w, 3, stride, 1, out_pad);
      for (const GradChannels& ch : kGradChannels) {
        SCOPED_TRACE(testing::Message()
                     << "conv_transpose2d " << ch.cin << "->" << ch.cout
                     << " batch " << ch.batch << " w " << w << " stride "
                     << stride);
        util::Rng rng(2000 * w + 10 * stride + ch.cin);
        const Tensor x = random_tensor({ch.batch, ch.cin, h, w}, rng);
        const Tensor wt = random_tensor({ch.cin, ch.cout, 3, 3}, rng);
        const Tensor b = random_tensor({ch.cout}, rng);
        const Tensor gy = random_tensor({ch.batch, ch.cout, ho, wo}, rng);
        const auto op = [&](const Var& vx, const Var& vw, const Var& vb) {
          return nn::conv_transpose2d(vx, vw, vb, stride, 1, out_pad);
        };
        const ConvGrads want = reference_deconv_grads(x, wt, gy, stride);
        expect_backward_bits(op, x, wt, b, gy, want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FLOP accounting: the fused path counts what its lowering would
// ---------------------------------------------------------------------------

/// gemm.flops and conv.fused_flops over one forward pass of the paper net on
/// a 20 x 28 grid.
std::pair<std::int64_t, std::int64_t> forward_flops(KernelBackend backend) {
  ForcedBackend forced(backend);
  core::ModelConfig config;
  config.distance_channels = 3;
  config.tile_rows = 20;
  config.tile_cols = 28;
  const core::WorstCaseNoiseNet net(config);
  util::Rng rng(61);
  const Tensor distance = random_tensor({1, 3, 20, 28}, rng);
  const Tensor currents = random_tensor({4, 1, 20, 28}, rng);
  nn::NoGradGuard guard;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  net.forward(Var(distance), Var(currents));
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::set_enabled(was_enabled);
  return {obs::counter_reading(before, after, obs::Counter::kGemmFlops),
          obs::counter_reading(before, after, obs::Counter::kConvFusedFlops)};
}

TEST(Kernels, FusedConvFlopsCompleteTheGemmCount) {
  SKIP_WITHOUT_AVX2();
  const auto [scalar_gemm, scalar_fused] =
      forward_flops(KernelBackend::kScalar);
  const auto [avx2_gemm, avx2_fused] = forward_flops(KernelBackend::kAvx2);
  EXPECT_EQ(0, scalar_fused);
  EXPECT_GT(avx2_fused, 0);
  EXPECT_EQ(scalar_gemm, avx2_gemm + avx2_fused);
}

// ---------------------------------------------------------------------------
// End-to-end: trained weights bit-identical across backends
// ---------------------------------------------------------------------------

/// Train a small two-conv net (stride 1 then stride 2, the paper net's two
/// conv flavors) for a few Adam steps from a fixed seed; return every
/// parameter value. Forward hits the fused path, backward the nn/tn kernels.
std::vector<float> train_small_net(KernelBackend backend) {
  ForcedBackend forced(backend);
  util::Rng rng(47);
  nn::Conv2d conv1(2, 4, 3, 1, 1, nn::PadMode::kReplicate, rng);
  nn::Conv2d conv2(4, 6, 3, 2, 1, nn::PadMode::kZero, rng);
  std::vector<nn::Parameter*> params = conv1.parameters();
  for (nn::Parameter* p : conv2.parameters()) params.push_back(p);
  nn::Adam opt(params, 1e-2f);

  Tensor x({3, 2, 12, 12});
  util::Rng data_rng(53);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.normal());
  }
  Tensor target = Tensor::zeros({3, 6, 6, 6});
  for (std::int64_t i = 0; i < target.numel(); ++i) {
    target.data()[i] = static_cast<float>(data_rng.uniform());
  }

  for (int step = 0; step < 15; ++step) {
    opt.zero_grad();
    Var h = nn::relu(conv1.forward(Var(x)));
    Var loss = nn::l1_loss(conv2.forward(h), target);
    loss.backward();
    opt.step();
  }

  std::vector<float> out;
  for (nn::Parameter* p : params) {
    const Tensor& v = p->var.value();
    out.insert(out.end(), v.data(), v.data() + v.numel());
  }
  return out;
}

TEST(Kernels, TrainedWeightsBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const auto scalar = train_small_net(KernelBackend::kScalar);
  const auto avx2 = train_small_net(KernelBackend::kAvx2);
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
}

}  // namespace
