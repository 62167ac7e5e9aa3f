#include "sparse/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "sparse/ordering.hpp"
#include "util/check.hpp"

namespace pdnn::sparse {

namespace {

/// First stored column of row i: the row spans [first, i], so its length in
/// the packed profile is i - first + 1.
int first_column(const std::vector<std::size_t>& offset, int i) {
  const auto r = static_cast<std::size_t>(i);
  return i + 1 - static_cast<int>(offset[r + 1] - offset[r]);
}

}  // namespace

void BandCholesky::factor(const CsrMatrix& a,
                          std::size_t max_envelope_bytes) {
  const int n = a.rows();
  PDN_CHECK(n > 0, "BandCholesky: empty matrix");

  std::vector<int> perm = reverse_cuthill_mckee(a);
  const CsrMatrix p = a.permuted(perm);
  const auto& indptr = p.indptr();
  const auto& indices = p.indices();
  const auto& values = p.values();

  // Envelope row offsets: row r spans [first(r), r], first(r) being its
  // leftmost nonzero (the diagonal when it has none to the left).
  std::vector<std::size_t> offset(static_cast<std::size_t>(n) + 1, 0);
  int bw = 0;
  for (int r = 0; r < n; ++r) {
    int first = r;
    for (std::int64_t q = indptr[r]; q < indptr[r + 1]; ++q) {
      first = std::min(first, indices[static_cast<std::size_t>(q)]);
    }
    bw = std::max(bw, r - first);
    offset[static_cast<std::size_t>(r) + 1] =
        offset[static_cast<std::size_t>(r)] +
        static_cast<std::size_t>(r - first + 1);
  }
  PDN_CHECK(offset.back() <= max_envelope_bytes / sizeof(double),
            "BandCholesky: envelope storage exceeds memory budget");

  // Scatter the lower triangle of the permuted matrix into the profile.
  std::vector<double> env(offset.back(), 0.0);
  for (int r = 0; r < n; ++r) {
    const std::size_t row = offset[static_cast<std::size_t>(r)];
    const int first = first_column(offset, r);
    for (std::int64_t q = indptr[r]; q < indptr[r + 1]; ++q) {
      const int c = indices[static_cast<std::size_t>(q)];
      if (c <= r) {
        env[row + static_cast<std::size_t>(c - first)] =
            values[static_cast<std::size_t>(q)];
      }
    }
  }

  // In-place row Cholesky: row i, columns j in [first(i), i]. Fill stays
  // inside the envelope, so L(i,k) * L(j,k) can be nonzero only from
  // k = max(first(i), first(j)); every term before it is an exact zero.
  for (int i = 0; i < n; ++i) {
    const std::size_t row_i = offset[static_cast<std::size_t>(i)];
    const int fi = first_column(offset, i);
    for (int j = fi; j <= i; ++j) {
      const std::size_t row_j = offset[static_cast<std::size_t>(j)];
      const int fj = first_column(offset, j);
      const int k_lo = std::max(fi, fj);
      // L(i,k) at env[row_i + k - fi], L(j,k) at env[row_j + k - fj].
      const double* pi =
          env.data() + row_i + static_cast<std::size_t>(k_lo - fi);
      const double* pj =
          env.data() + row_j + static_cast<std::size_t>(k_lo - fj);
      double acc = env[row_i + static_cast<std::size_t>(j - fi)];
      for (int k = k_lo; k < j; ++k) acc -= *pi++ * *pj++;
      if (j < i) {
        env[row_i + static_cast<std::size_t>(j - fi)] =
            acc / env[offset[static_cast<std::size_t>(j) + 1] - 1];
      } else {
        PDN_CHECK(acc > 0.0, "BandCholesky: matrix is not positive definite");
        env[row_i + static_cast<std::size_t>(i - fi)] = std::sqrt(acc);
      }
    }
  }

  n_ = n;
  bw_ = bw;
  perm_ = std::move(perm);
  offset_ = std::move(offset);
  values_ = std::move(env);
}

void BandCholesky::solve(const std::vector<double>& b,
                         std::vector<double>& x) const {
  PDN_CHECK(factored(), "BandCholesky::solve before factor");
  PDN_CHECK(static_cast<int>(b.size()) == n_,
            "BandCholesky::solve: size mismatch");
  // Single-RHS solve is the B=1 case of the blocked kernel, so serial and
  // batched transient results share their bits, but not their speed: here
  // solve_multi inlines with the width fixed at 1, while a call with a
  // runtime width of 1 gets no such specialization, and simulate_batch of
  // one trace ran 3-4x slower than simulate() on D1-D4 small.
  x.assign(static_cast<std::size_t>(n_), 0.0);
  solve_multi(b.data(), x.data(), 1);
}

void BandCholesky::solve_multi(const double* b, double* x, int batch) const {
  PDN_CHECK(factored(), "BandCholesky::solve_multi before factor");
  PDN_CHECK(batch > 0, "BandCholesky::solve_multi: non-positive batch");
  obs::counter_add(obs::Counter::kCholSolves, 1);
  obs::counter_add(obs::Counter::kCholSolveColumns, batch);
  obs::counter_max(obs::Counter::kCholBatchWidthMax, batch);
  obs::TraceSpan span("chol.solve_multi", "batch", batch);
  const std::size_t bsz = static_cast<std::size_t>(batch);

  // Interleave the permuted right-hand sides: y[i*batch + c] holds column c
  // at (factor-ordered) node i, so the inner per-column loops below are
  // contiguous and vectorizable.
  std::vector<double> y(static_cast<std::size_t>(n_) * bsz);
  for (int i = 0; i < n_; ++i) {
    const std::size_t src = static_cast<std::size_t>(perm_[i]);
    double* yi = y.data() + static_cast<std::size_t>(i) * bsz;
    for (std::size_t c = 0; c < bsz; ++c) {
      yi[c] = b[c * static_cast<std::size_t>(n_) + src];
    }
  }

  // Forward substitution: L z = y. Per column: subtract the j terms in
  // ascending j from first(i), then divide by the pivot.
  for (int i = 0; i < n_; ++i) {
    const int fi = first_column(offset_, i);
    const double* row = values_.data() + offset_[static_cast<std::size_t>(i)];
    double* yi = y.data() + static_cast<std::size_t>(i) * bsz;
    for (int j = fi; j < i; ++j) {
      const double l = row[j - fi];
      const double* yj = y.data() + static_cast<std::size_t>(j) * bsz;
      for (std::size_t c = 0; c < bsz; ++c) yi[c] -= l * yj[c];
    }
    const double d = row[i - fi];
    for (std::size_t c = 0; c < bsz; ++c) yi[c] = yi[c] / d;
  }

  // Backward substitution: L^T x = z, column-oriented: divide row i by its
  // pivot, then scatter it into the rows of its envelope.
  for (int i = n_ - 1; i >= 0; --i) {
    const int fi = first_column(offset_, i);
    const double* row = values_.data() + offset_[static_cast<std::size_t>(i)];
    double* yi = y.data() + static_cast<std::size_t>(i) * bsz;
    const double d = row[i - fi];
    for (std::size_t c = 0; c < bsz; ++c) yi[c] = yi[c] / d;
    for (int j = fi; j < i; ++j) {
      const double l = row[j - fi];
      double* yj = y.data() + static_cast<std::size_t>(j) * bsz;
      for (std::size_t c = 0; c < bsz; ++c) yj[c] -= l * yi[c];
    }
  }

  // Un-permute back into column-major output.
  for (int i = 0; i < n_; ++i) {
    const std::size_t dst = static_cast<std::size_t>(perm_[i]);
    const double* yi = y.data() + static_cast<std::size_t>(i) * bsz;
    for (std::size_t c = 0; c < bsz; ++c) {
      x[c * static_cast<std::size_t>(n_) + dst] = yi[c];
    }
  }
}

}  // namespace pdnn::sparse
