// Direct factorization for the PDN system matrix.
//
// Dynamic analysis is a sequence of solves against one fixed SPD matrix
// (G + C/dt), so the dominant cost pattern is "factor once, solve per time
// step" — exactly what commercial sign-off engines do. After a reverse
// Cuthill-McKee reordering the two-layer grid matrix has a small envelope:
// row i's nonzeros start at its first column first(i), a little left of the
// diagonal. Cholesky fill never leaves the envelope, so the factor stores
// each row from first(i) to the diagonal (profile storage) and every factor
// and substitution loop starts at first(i). On D1-D4 that is 52-58% of the
// band a fixed-width band Cholesky would store and stream.
//
// Like the whole tree, cholesky.cpp compiles with -ffp-contract=off in every
// build type, so a factor and a solve give the same bits in Release and
// Debug, on gcc and clang, native or not (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/csr.hpp"

namespace pdnn::sparse {

/// Envelope (profile) Cholesky factorization A = L L^T with internal RCM
/// reordering. An envelope is a band whose width varies by row, hence the
/// name.
class BandCholesky {
 public:
  /// Factor an SPD matrix. Throws CheckError if the matrix is not positive
  /// definite (non-positive pivot) or the envelope storage would exceed
  /// max_envelope_bytes; the budget is checked before the factor is
  /// allocated. A throwing call leaves the previous factor in place.
  void factor(const CsrMatrix& a,
              std::size_t max_envelope_bytes = std::size_t{6} << 30);

  /// Solve A x = b for one right-hand side. Requires factor() first.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

  /// Solve A X = B for `batch` right-hand sides stored column-major (column
  /// j occupies b[j*n .. j*n + n)); x uses the same layout and may alias b.
  /// The substitution kernels walk each factor row once and update every
  /// column in its inner loop, so the factor streams from memory once per
  /// pass instead of once per right-hand side. Each column undergoes exactly
  /// the floating-point operations of solve() in the same order (there is no
  /// cross-column arithmetic), so column j of the result is bit-identical to
  /// a single-RHS solve of that column.
  void solve_multi(const double* b, double* x, int batch) const;

  bool factored() const { return n_ > 0; }
  int rows() const { return n_; }
  /// Largest distance from a row's first column to its diagonal.
  int band() const { return bw_; }

  /// Stored factor entries: the envelope, sum over rows of i - first(i) + 1.
  std::size_t factor_entries() const { return values_.size(); }

 private:
  int n_ = 0;
  int bw_ = 0;
  std::vector<int> perm_;  // new -> old
  // Profile storage: row i holds L(i, j) for j in [first(i), i] at
  // values_[offset_[i] + (j - first(i))]; its diagonal is the row's last
  // entry, values_[offset_[i + 1] - 1].
  std::vector<std::size_t> offset_;
  std::vector<double> values_;
};

}  // namespace pdnn::sparse
