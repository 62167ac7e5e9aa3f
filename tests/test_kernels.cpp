// Kernel-registry tests: backend selection/forcing semantics, and the
// determinism contract — the scalar and AVX2 backends must produce
// bit-identical results for every dispatched kernel, at any thread count,
// through any call path (raw gemm, conv lowering, and end-to-end training).
// The suite name is "Kernels" so the TSan CI leg's regex picks it up.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
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
  // Both tables share the scalar nt kernel; this locks the sharing in.
  const auto scalar = run_gemm(linalg::gemm_nt, KernelBackend::kScalar, 17,
                               23, 31, 1.0f, 0.5f, false);
  const auto avx2 = run_gemm(linalg::gemm_nt, KernelBackend::kAvx2, 17, 23,
                             31, 1.0f, 0.5f, false);
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
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

// Stride 1 and 2, both pad modes, output widths hitting the 32-wide tiles,
// the 8-wide tail, and the scalar remainder, plus tiny planes where the
// halo dominates.
const ConvCase kConvCases[] = {
    {3, 5, 16, 16, 1, nn::PadMode::kReplicate},
    {3, 5, 16, 16, 2, nn::PadMode::kReplicate},
    {2, 4, 7, 5, 1, nn::PadMode::kZero},
    {2, 4, 9, 9, 2, nn::PadMode::kZero},
    {1, 2, 3, 3, 1, nn::PadMode::kReplicate},
    {1, 2, 4, 3, 2, nn::PadMode::kZero},
    {8, 8, 32, 33, 1, nn::PadMode::kReplicate},
    {8, 16, 32, 32, 2, nn::PadMode::kReplicate},
    {4, 3, 5, 40, 1, nn::PadMode::kZero},
};

std::vector<float> run_conv(const ConvCase& cc, KernelBackend backend,
                            int batch, float poison) {
  ForcedBackend forced(backend);
  util::Rng rng(29);
  nn::Conv2d conv(cc.cin, cc.cout, 3, cc.stride, 1, cc.mode, rng);
  Tensor x({batch, cc.cin, cc.h, cc.w});
  util::Rng data_rng(31);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.normal());
  }
  if (poison != 0.0f) x.data()[x.numel() / 2] = poison;
  nn::NoGradGuard guard;
  const Var y = conv.forward(Var(x));
  return std::vector<float>(y.value().data(),
                            y.value().data() + y.value().numel());
}

TEST(Kernels, ConvForwardBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  for (const ConvCase& cc : kConvCases) {
    const auto scalar = run_conv(cc, KernelBackend::kScalar, 2, 0.0f);
    const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 2, 0.0f);
    EXPECT_TRUE(bitwise_equal(scalar, avx2))
        << cc.cin << "->" << cc.cout << " " << cc.h << "x" << cc.w
        << " stride " << cc.stride;
  }
}

TEST(Kernels, ConvForwardNanBitIdenticalAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  const ConvCase cc = {2, 3, 10, 11, 1, nn::PadMode::kZero};
  const auto scalar = run_conv(cc, KernelBackend::kScalar, 1, std::nanf(""));
  const auto avx2 = run_conv(cc, KernelBackend::kAvx2, 1, std::nanf(""));
  EXPECT_TRUE(bitwise_equal(scalar, avx2));
}

// ---------------------------------------------------------------------------
// End-to-end: trained weights bit-identical across backends
// ---------------------------------------------------------------------------

/// Train a small two-conv net (stride 1 then stride 2, the paper net's two
/// conv flavors) for a few Adam steps from a fixed seed; return every
/// parameter value. Forward hits the fused path, backward the tn/nt kernels.
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
