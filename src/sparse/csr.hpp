// Compressed-sparse-row matrices.
//
// The discretized PDN (modified nodal analysis with backward-Euler companion
// models) is a symmetric positive-definite sparse system; this module holds
// its storage format plus the handful of kernels the solver needs.
#pragma once

#include <cstdint>
#include <vector>

namespace pdnn::sparse {

/// One coordinate-format entry used during matrix assembly ("stamping").
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Square sparse matrix in CSR format with sorted column indices per row.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assemble from triplets; duplicate (row, col) entries are summed, exactly
  /// like element stamping in circuit simulators. Zero-valued results are
  /// kept (structural nonzeros), entries must lie in [0, n).
  static CsrMatrix from_triplets(int n, const std::vector<Triplet>& triplets);

  int rows() const { return n_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(values_.size()); }

  const std::vector<std::int64_t>& indptr() const { return indptr_; }
  const std::vector<int>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A * x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Returns the main diagonal (missing entries read as zero).
  std::vector<double> diagonal() const;

  /// True if the stored pattern and values are symmetric within tol.
  bool is_symmetric(double tol = 1e-12) const;

  /// Symmetric permutation B = P A P^T where row i of B is row perm[i] of A
  /// (perm maps new index -> old index).
  CsrMatrix permuted(const std::vector<int>& perm) const;

 private:
  int n_ = 0;
  std::vector<std::int64_t> indptr_;
  std::vector<int> indices_;
  std::vector<double> values_;
};

}  // namespace pdnn::sparse
