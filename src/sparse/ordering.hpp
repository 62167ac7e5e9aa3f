// Fill-reducing node ordering.
//
// The envelope Cholesky factorization's cost is the sum over rows of the
// squared row envelope width, at most O(n * bandwidth^2); a reverse
// Cuthill-McKee reordering of the PDN graph brings the bandwidth of a
// two-layer power grid close to its smaller grid dimension, and its
// envelope to about half of that band, which makes the direct solver
// practical for the design sizes used here.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pdnn::sparse {

/// Reverse Cuthill-McKee ordering. Returns perm where perm[new] = old.
/// Handles disconnected graphs by restarting from the lowest-degree
/// unvisited node.
std::vector<int> reverse_cuthill_mckee(const CsrMatrix& a);

/// Half-bandwidth of A under the given ordering (max |new(i) - new(j)| over
/// nonzeros). perm maps new -> old.
int bandwidth(const CsrMatrix& a, const std::vector<int>& perm);

}  // namespace pdnn::sparse
