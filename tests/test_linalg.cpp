// Unit + property tests for the GEMM kernels: every variant, and the
// transposed-B product the conv weight gradient builds on gemm_nn, is checked
// against a naive reference over a parameterized sweep of shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "linalg/gemm.hpp"
#include "nn/conv.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

std::vector<float> random_matrix(int rows, int cols, util::Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (float& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// Naive reference: C = alpha * op(A) * op(B) + beta * C.
void reference_gemm(bool ta, bool tb, int m, int n, int k, float alpha,
                    const std::vector<float>& a, const std::vector<float>& b,
                    float beta, std::vector<float>& c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[static_cast<std::size_t>(p) * m + i]
                            : a[static_cast<std::size_t>(i) * k + p];
        const float bv = tb ? b[static_cast<std::size_t>(j) * k + p]
                            : b[static_cast<std::size_t>(p) * n + j];
        acc += static_cast<double>(av) * bv;
      }
      float& out = c[static_cast<std::size_t>(i) * n + j];
      out = alpha * static_cast<float>(acc) + beta * out;
    }
  }
}

using Shape = std::tuple<int, int, int>;  // m, n, k

class GemmShapes : public testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, NnMatchesReference) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(42);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto c = random_matrix(m, n, rng);
  auto expected = c;
  linalg::gemm_nn(m, n, k, 1.3f, a.data(), k, b.data(), n, 0.5f, c.data(), n);
  reference_gemm(false, false, m, n, k, 1.3f, a, b, 0.5f, expected);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "index " << i;
  }
}

TEST_P(GemmShapes, NtMatchesReference) {
  // C += A * B^T, the convolutions' weight gradient (alpha 1, beta 1).
  const auto [m, n, k] = GetParam();
  util::Rng rng(43);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(n, k, rng);  // B is N x K for NT
  auto c = random_matrix(m, n, rng);
  auto expected = c;
  nn::accumulate_weight_grad(m, n, k, a.data(), b.data(), c.data());
  reference_gemm(false, true, m, n, k, 1.0f, a, b, 1.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "index " << i;
  }
}

TEST_P(GemmShapes, TnMatchesReference) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(44);
  const auto a = random_matrix(k, m, rng);  // A is K x M for TN
  const auto b = random_matrix(k, n, rng);
  auto c = random_matrix(m, n, rng);
  auto expected = c;
  linalg::gemm_tn(m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f, c.data(), n);
  reference_gemm(true, false, m, n, k, 1.0f, a, b, 0.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    testing::Values(Shape{1, 1, 1}, Shape{3, 5, 7}, Shape{16, 16, 16},
                    Shape{8, 65, 300}, Shape{65, 8, 9}, Shape{128, 33, 257},
                    Shape{1, 64, 512}, Shape{64, 1, 2}),
    [](const testing::TestParamInfo<Shape>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param)) + "k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Gemm, BetaZeroOverwritesGarbage) {
  // beta = 0 must not propagate NaN/inf from uninitialized C.
  const int m = 4, n = 4, k = 4;
  util::Rng rng(5);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(16, std::numeric_limits<float>::quiet_NaN());
  linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  for (float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, ZeroOperandPropagatesNanAndInfNn) {
  // A zero in A must not suppress a non-finite contribution from B:
  // 0 * NaN = NaN and 0 * Inf = NaN under IEEE/BLAS semantics. A fast path
  // skipping zero A entries silently dropped these terms.
  const int m = 2, n = 3, k = 2;
  const std::vector<float> a{0.0f, 1.0f,   // row 0 hits B's non-finite row
                             2.0f, 3.0f};  // with a zero coefficient
  std::vector<float> b(6, 1.0f);
  b[0] = std::numeric_limits<float>::quiet_NaN();  // B(0,0)
  b[1] = std::numeric_limits<float>::infinity();   // B(0,1)
  std::vector<float> c(6, 0.0f);
  linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  EXPECT_TRUE(std::isnan(c[0]));  // 0*NaN + 1*1
  EXPECT_TRUE(std::isnan(c[1]));  // 0*Inf + 1*1
  EXPECT_FLOAT_EQ(c[2], 1.0f);
  EXPECT_TRUE(std::isnan(c[3]));  // 2*NaN + 3*1
  EXPECT_TRUE(std::isinf(c[4]));  // 2*Inf + 3*1
  EXPECT_FLOAT_EQ(c[5], 5.0f);
}

TEST(Gemm, ZeroOperandPropagatesNanAndInfTn) {
  const int m = 2, n = 3, k = 2;
  // A is K x M for TN; A(0,0) = 0 multiplies B's non-finite row 0.
  const std::vector<float> a{0.0f, 2.0f,   // A(0,:)
                             1.0f, 3.0f};  // A(1,:)
  std::vector<float> b(6, 1.0f);
  b[0] = std::numeric_limits<float>::quiet_NaN();  // B(0,0)
  b[1] = std::numeric_limits<float>::infinity();   // B(0,1)
  std::vector<float> c(6, 0.0f);
  linalg::gemm_tn(m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f, c.data(), n);
  EXPECT_TRUE(std::isnan(c[0]));  // 0*NaN + 1*1
  EXPECT_TRUE(std::isnan(c[1]));  // 0*Inf + 1*1
  EXPECT_FLOAT_EQ(c[2], 1.0f);
  EXPECT_TRUE(std::isnan(c[3]));  // 2*NaN + 3*1
  EXPECT_TRUE(std::isinf(c[4]));  // 2*Inf + 3*1
  EXPECT_FLOAT_EQ(c[5], 5.0f);
}

TEST(Gemm, AxpyAndDot) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{4, 5, 6};
  linalg::axpy(3, 2.0f, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);
  EXPECT_DOUBLE_EQ(linalg::dot(3, x.data(), x.data()), 14.0);
}

}  // namespace
}  // namespace pdnn
