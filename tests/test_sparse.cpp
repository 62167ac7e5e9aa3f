// Unit + property tests for the sparse stack: CSR assembly, orderings and
// the envelope Cholesky.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "sparse/cholesky.hpp"
#include "sparse/csr.hpp"
#include "sparse/ordering.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

using sparse::CsrMatrix;
using sparse::Triplet;

/// 2-D grid Laplacian + diagonal shift: the same structure as a PDN matrix.
CsrMatrix grid_laplacian(int rows, int cols, double shift) {
  std::vector<Triplet> t;
  const auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t.push_back({id(r, c), id(r, c), shift});
      const auto stamp = [&](int a, int b) {
        t.push_back({a, a, 1.0});
        t.push_back({b, b, 1.0});
        t.push_back({a, b, -1.0});
        t.push_back({b, a, -1.0});
      };
      if (c + 1 < cols) stamp(id(r, c), id(r, c + 1));
      if (r + 1 < rows) stamp(id(r, c), id(r + 1, c));
    }
  }
  return CsrMatrix::from_triplets(rows * cols, t);
}

std::vector<double> random_vector(int n, util::Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.normal();
  return v;
}

double residual_norm(const CsrMatrix& a, const std::vector<double>& x,
                     const std::vector<double>& b) {
  std::vector<double> ax;
  a.multiply(x, ax);
  double acc = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    acc += (ax[i] - b[i]) * (ax[i] - b[i]);
  }
  return std::sqrt(acc);
}

TEST(Csr, FromTripletsMergesDuplicates) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      2, {{0, 0, 1.0}, {0, 0, 2.0}, {0, 1, -1.0}, {1, 1, 5.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.nnz(), 4);
  const auto diag = m.diagonal();
  EXPECT_DOUBLE_EQ(diag[0], 3.0);
  EXPECT_DOUBLE_EQ(diag[1], 5.0);
}

TEST(Csr, ColumnsSortedPerRow) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      3, {{0, 2, 1.0}, {0, 0, 1.0}, {0, 1, 1.0}});
  ASSERT_EQ(m.indptr()[1] - m.indptr()[0], 3);
  EXPECT_EQ(m.indices()[0], 0);
  EXPECT_EQ(m.indices()[1], 1);
  EXPECT_EQ(m.indices()[2], 2);
}

TEST(Csr, RejectsOutOfRangeIndex) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, {{0, 2, 1.0}}), util::CheckError);
}

TEST(Csr, MultiplyMatchesManual) {
  const CsrMatrix m =
      CsrMatrix::from_triplets(2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 3.0}});
  std::vector<double> y;
  m.multiply({1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Csr, SymmetryDetection) {
  EXPECT_TRUE(grid_laplacian(4, 5, 0.1).is_symmetric());
  const CsrMatrix asym = CsrMatrix::from_triplets(
      2, {{0, 1, 1.0}, {1, 0, 2.0}, {0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_FALSE(asym.is_symmetric());
}

TEST(Csr, PermutedPreservesSpectrumAction) {
  const CsrMatrix a = grid_laplacian(3, 3, 0.5);
  std::vector<int> perm{8, 3, 5, 0, 7, 2, 6, 1, 4};
  const CsrMatrix p = a.permuted(perm);
  // (P A P^T) (P x) == P (A x).
  util::Rng rng(3);
  const auto x = random_vector(9, rng);
  std::vector<double> ax, px(9), pax_expected(9), pax;
  a.multiply(x, ax);
  for (int i = 0; i < 9; ++i) {
    px[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(perm[i])];
    pax_expected[static_cast<std::size_t>(i)] =
        ax[static_cast<std::size_t>(perm[i])];
  }
  p.multiply(px, pax);
  for (int i = 0; i < 9; ++i) {
    EXPECT_NEAR(pax[static_cast<std::size_t>(i)],
                pax_expected[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Ordering, RcmReducesBandwidthOnShuffledGrid) {
  // Destroy the natural ordering with a random symmetric permutation, then
  // verify RCM recovers a bandwidth close to the grid dimension.
  const CsrMatrix a = grid_laplacian(12, 12, 0.1);
  std::vector<int> shuffle(144);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  util::Rng rng(77);
  rng.shuffle(shuffle);
  const CsrMatrix shuffled = a.permuted(shuffle);

  std::vector<int> identity(144);
  std::iota(identity.begin(), identity.end(), 0);
  const int bw_before = sparse::bandwidth(shuffled, identity);
  const auto perm = sparse::reverse_cuthill_mckee(shuffled);
  const int bw_after = sparse::bandwidth(shuffled, perm);
  EXPECT_LT(bw_after, bw_before / 2);
  EXPECT_LE(bw_after, 40);  // natural grid bandwidth is 12
}

TEST(Ordering, RcmIsAPermutation) {
  const CsrMatrix a = grid_laplacian(5, 7, 0.2);
  auto perm = sparse::reverse_cuthill_mckee(a);
  std::sort(perm.begin(), perm.end());
  for (int i = 0; i < 35; ++i) EXPECT_EQ(perm[static_cast<std::size_t>(i)], i);
}

TEST(Ordering, HandlesDisconnectedGraph) {
  // Two disjoint 2x2 grids.
  std::vector<Triplet> t;
  for (int block = 0; block < 2; ++block) {
    const int off = block * 4;
    for (int i = 0; i < 4; ++i) t.push_back({off + i, off + i, 2.0});
    t.push_back({off + 0, off + 1, -1.0});
    t.push_back({off + 1, off + 0, -1.0});
    t.push_back({off + 2, off + 3, -1.0});
    t.push_back({off + 3, off + 2, -1.0});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(8, t);
  auto perm = sparse::reverse_cuthill_mckee(a);
  EXPECT_EQ(perm.size(), 8u);
  std::sort(perm.begin(), perm.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(perm[static_cast<std::size_t>(i)], i);
}

class SolveGrids : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SolveGrids, CholeskySolvesToMachinePrecision) {
  const auto [rows, cols] = GetParam();
  const CsrMatrix a = grid_laplacian(rows, cols, 0.3);
  util::Rng rng(1);
  const auto b = random_vector(a.rows(), rng);
  sparse::BandCholesky chol;
  chol.factor(a);
  std::vector<double> x;
  chol.solve(b, x);
  EXPECT_LT(residual_norm(a, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GridSweep, SolveGrids,
                         testing::Values(std::pair{1, 1}, std::pair{2, 3},
                                         std::pair{8, 8}, std::pair{13, 7},
                                         std::pair{20, 20}, std::pair{31, 5}),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

TEST(Cholesky, RejectsIndefiniteMatrix) {
  // A diagonal with a negative entry is not SPD.
  const CsrMatrix a =
      CsrMatrix::from_triplets(2, {{0, 0, 1.0}, {1, 1, -1.0}});
  sparse::BandCholesky chol;
  EXPECT_THROW(chol.factor(a), util::CheckError);
}

TEST(Cholesky, RespectsMemoryBudget) {
  const CsrMatrix a = grid_laplacian(30, 30, 0.5);
  sparse::BandCholesky chol;
  EXPECT_THROW(chol.factor(a, /*max_envelope_bytes=*/128), util::CheckError);
}

TEST(Cholesky, TridiagonalEnvelopeIsTwoNMinusOne) {
  // A path graph: every row below the first holds its diagonal and one
  // subdiagonal entry, so the profile stores 2n - 1 values.
  constexpr int kN = 40;
  std::vector<Triplet> t;
  for (int i = 0; i < kN; ++i) {
    t.push_back({i, i, 2.5});
    if (i + 1 < kN) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  const CsrMatrix a = CsrMatrix::from_triplets(kN, t);
  sparse::BandCholesky chol;
  chol.factor(a);
  EXPECT_EQ(chol.band(), 1);
  EXPECT_EQ(chol.factor_entries(), static_cast<std::size_t>(2 * kN - 1));
  util::Rng rng(5);
  const auto b = random_vector(kN, rng);
  std::vector<double> x;
  chol.solve(b, x);
  EXPECT_LT(residual_norm(a, x, b), 1e-9);
}

TEST(Cholesky, GridEnvelopeIsSmallerThanBand) {
  const CsrMatrix a = grid_laplacian(20, 20, 0.3);
  sparse::BandCholesky chol;
  chol.factor(a);
  const std::size_t band_entries = static_cast<std::size_t>(chol.rows()) *
                                   static_cast<std::size_t>(chol.band() + 1);
  EXPECT_LT(chol.factor_entries(), band_entries);
}

TEST(Cholesky, BudgetBoundsEnvelopeBytes) {
  // The budget is checked on the envelope: one entry short of the band
  // still factors, exactly the envelope factors, one byte less is refused.
  const CsrMatrix a = grid_laplacian(16, 11, 0.2);
  sparse::BandCholesky chol;
  chol.factor(a);
  const std::size_t envelope_bytes = chol.factor_entries() * sizeof(double);
  const std::size_t band_bytes = static_cast<std::size_t>(chol.rows()) *
                                 static_cast<std::size_t>(chol.band() + 1) *
                                 sizeof(double);
  EXPECT_LT(envelope_bytes, band_bytes);
  EXPECT_NO_THROW(chol.factor(a, band_bytes - sizeof(double)));
  EXPECT_NO_THROW(chol.factor(a, envelope_bytes));
  EXPECT_THROW(chol.factor(a, envelope_bytes - 1), util::CheckError);
}

TEST(Cholesky, FailedFactorKeepsThePreviousOne) {
  // A refused budget or a non-positive pivot throws before anything is
  // replaced: the object still solves the matrix it factored last.
  const CsrMatrix small = grid_laplacian(6, 5, 0.4);
  sparse::BandCholesky chol;
  chol.factor(small);
  EXPECT_THROW(chol.factor(grid_laplacian(30, 30, 0.5),
                           /*max_envelope_bytes=*/128),
               util::CheckError);
  EXPECT_THROW(chol.factor(grid_laplacian(9, 9, -8.0)), util::CheckError);
  ASSERT_EQ(chol.rows(), small.rows());
  util::Rng rng(11);
  const auto b = random_vector(small.rows(), rng);
  std::vector<double> x;
  chol.solve(b, x);
  EXPECT_LT(residual_norm(small, x, b), 1e-9);
}

TEST(Cholesky, WarmRepeatSolvesAreConsistent) {
  const CsrMatrix a = grid_laplacian(10, 10, 0.2);
  sparse::BandCholesky chol;
  chol.factor(a);
  util::Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const auto b = random_vector(a.rows(), rng);
    std::vector<double> x;
    chol.solve(b, x);
    EXPECT_LT(residual_norm(a, x, b), 1e-9);
  }
}

TEST(Cholesky, SolveMultiMatchesRepeatedSingleBitExact) {
  // The multi-RHS block path must be a pure memory-traffic optimization:
  // every column bit-identical to a single-RHS solve.
  const CsrMatrix a = grid_laplacian(9, 7, 0.3);
  const int n = a.rows();
  sparse::BandCholesky chol;
  chol.factor(a);
  ASSERT_EQ(chol.rows(), n);
  for (const int batch : {1, 2, 3, 5}) {
    util::Rng rng(31);
    std::vector<double> block(static_cast<std::size_t>(n) * batch);
    for (double& v : block) v = rng.normal();
    std::vector<double> xblock(block.size(), 0.0);
    chol.solve_multi(block.data(), xblock.data(), batch);
    for (int c = 0; c < batch; ++c) {
      const std::vector<double> b(
          block.begin() + static_cast<std::size_t>(c) * n,
          block.begin() + static_cast<std::size_t>(c + 1) * n);
      std::vector<double> x;
      chol.solve(b, x);
      EXPECT_EQ(0,
                std::memcmp(x.data(),
                            xblock.data() + static_cast<std::size_t>(c) * n,
                            static_cast<std::size_t>(n) * sizeof(double)))
          << "batch " << batch << " column " << c;
    }
  }
}

TEST(Cholesky, SolveMultiSolvesEveryColumn) {
  const CsrMatrix a = grid_laplacian(12, 9, 0.4);
  sparse::BandCholesky chol;
  chol.factor(a);
  const int n = a.rows();
  constexpr int kBatch = 4;
  util::Rng rng(17);
  std::vector<double> b(static_cast<std::size_t>(n) * kBatch);
  for (double& v : b) v = rng.normal();
  std::vector<double> x(b.size(), 0.0);
  chol.solve_multi(b.data(), x.data(), kBatch);
  for (int c = 0; c < kBatch; ++c) {
    const std::vector<double> bc(b.begin() + static_cast<std::size_t>(c) * n,
                                 b.begin() +
                                     static_cast<std::size_t>(c + 1) * n);
    const std::vector<double> xc(x.begin() + static_cast<std::size_t>(c) * n,
                                 x.begin() +
                                     static_cast<std::size_t>(c + 1) * n);
    EXPECT_LT(residual_norm(a, xc, bc), 1e-9) << "column " << c;
  }
}

TEST(Cholesky, SolveBitsArePinned) {
  // The golden engine's bits must not depend on the build type or the
  // compiler: the tree compiles with -ffp-contract=off in every build, and
  // the solver's loops use only +, -, *, / and sqrt in a fixed order. The
  // matrix and the right-hand side are built from exact integers and binary
  // fractions (no libm, nothing this file could contract), so the digest of
  // the solution is a property of the solver alone and holds on every
  // compiler and build type that CI runs.
  const CsrMatrix a = grid_laplacian(12, 9, 0.25);
  const int n = a.rows();
  constexpr int kBatch = 3;
  std::vector<double> b(static_cast<std::size_t>(n) * kBatch);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(static_cast<int>((i * 7) % 17) - 8);
  }
  sparse::BandCholesky chol;
  chol.factor(a);
  std::vector<double> x(b.size(), 0.0);
  chol.solve_multi(b.data(), x.data(), kBatch);
  EXPECT_EQ(util::fnv1a64(x.data(), x.size() * sizeof(double)),
            0x0a7ce8035878549aull);
}

}  // namespace
}  // namespace pdnn
