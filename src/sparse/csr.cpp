#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace pdnn::sparse {

CsrMatrix CsrMatrix::from_triplets(int n,
                                   const std::vector<Triplet>& triplets) {
  PDN_CHECK(n >= 0, "from_triplets: negative dimension");
  CsrMatrix m;
  m.n_ = n;
  m.indptr_.assign(static_cast<std::size_t>(n) + 1, 0);

  // Count entries per row (duplicates included for now).
  for (const Triplet& t : triplets) {
    PDN_CHECK(t.row >= 0 && t.row < n && t.col >= 0 && t.col < n,
              "from_triplets: index out of range");
    ++m.indptr_[static_cast<std::size_t>(t.row) + 1];
  }
  std::partial_sum(m.indptr_.begin(), m.indptr_.end(), m.indptr_.begin());

  // Scatter, then sort+merge duplicates row by row.
  std::vector<int> cols(triplets.size());
  std::vector<double> vals(triplets.size());
  {
    std::vector<std::int64_t> next(m.indptr_.begin(), m.indptr_.end() - 1);
    for (const Triplet& t : triplets) {
      const std::int64_t pos = next[t.row]++;
      cols[static_cast<std::size_t>(pos)] = t.col;
      vals[static_cast<std::size_t>(pos)] = t.value;
    }
  }

  m.indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::vector<std::int64_t> new_indptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::pair<int, double>> row_buf;
  for (int r = 0; r < n; ++r) {
    row_buf.clear();
    for (std::int64_t p = m.indptr_[r]; p < m.indptr_[r + 1]; ++p) {
      row_buf.emplace_back(cols[static_cast<std::size_t>(p)],
                           vals[static_cast<std::size_t>(p)]);
    }
    std::sort(row_buf.begin(), row_buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < row_buf.size();) {
      double sum = row_buf[i].second;
      std::size_t j = i + 1;
      while (j < row_buf.size() && row_buf[j].first == row_buf[i].first) {
        sum += row_buf[j].second;
        ++j;
      }
      m.indices_.push_back(row_buf[i].first);
      m.values_.push_back(sum);
      i = j;
    }
    new_indptr[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.indices_.size());
  }
  m.indptr_ = std::move(new_indptr);
  return m;
}

void CsrMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  PDN_CHECK(static_cast<int>(x.size()) == n_, "multiply: size mismatch");
  y.assign(static_cast<std::size_t>(n_), 0.0);
  for (int r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::int64_t p = indptr_[r]; p < indptr_[r + 1]; ++p) {
      acc += values_[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(indices_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(n_), 0.0);
  for (int r = 0; r < n_; ++r) {
    for (std::int64_t p = indptr_[r]; p < indptr_[r + 1]; ++p) {
      if (indices_[static_cast<std::size_t>(p)] == r) {
        d[static_cast<std::size_t>(r)] = values_[static_cast<std::size_t>(p)];
        break;
      }
    }
  }
  return d;
}

bool CsrMatrix::is_symmetric(double tol) const {
  // Build a transpose walk: for each entry (r, c, v), look up (c, r).
  for (int r = 0; r < n_; ++r) {
    for (std::int64_t p = indptr_[r]; p < indptr_[r + 1]; ++p) {
      const int c = indices_[static_cast<std::size_t>(p)];
      const double v = values_[static_cast<std::size_t>(p)];
      // Binary search row c for column r (indices are sorted per row).
      const auto begin = indices_.begin() + indptr_[c];
      const auto end = indices_.begin() + indptr_[c + 1];
      const auto it = std::lower_bound(begin, end, r);
      if (it == end || *it != r) return false;
      const auto q = static_cast<std::size_t>(it - indices_.begin());
      if (std::abs(values_[q] - v) > tol * std::max(1.0, std::abs(v))) {
        return false;
      }
    }
  }
  return true;
}

CsrMatrix CsrMatrix::permuted(const std::vector<int>& perm) const {
  PDN_CHECK(static_cast<int>(perm.size()) == n_, "permuted: size mismatch");
  std::vector<int> inverse(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) inverse[static_cast<std::size_t>(perm[i])] = i;

  std::vector<Triplet> trips;
  trips.reserve(static_cast<std::size_t>(nnz()));
  for (int new_r = 0; new_r < n_; ++new_r) {
    const int old_r = perm[new_r];
    for (std::int64_t p = indptr_[old_r]; p < indptr_[old_r + 1]; ++p) {
      const int old_c = indices_[static_cast<std::size_t>(p)];
      trips.push_back({new_r, inverse[static_cast<std::size_t>(old_c)],
                       values_[static_cast<std::size_t>(p)]});
    }
  }
  return from_triplets(n_, trips);
}

}  // namespace pdnn::sparse
