// Differentiable operations (everything except convolution; see conv.hpp).
//
// The temporal reductions batch_max / batch_min / batch_mean3sigma implement
// the paper's current-map fusion outputs: for each tile, the maximum of the
// peak current (I~max), the mean of maximum and minimum currents (I~mean),
// and mu + 3*sigma (I~msd) across the compressed time axis. Time steps are
// carried in the batch (N) dimension.
#pragma once

#include <vector>

#include "nn/autograd.hpp"

namespace pdnn::nn {

/// Element-wise max(x, 0).
Var relu(const Var& x);

/// Element-wise sum; shapes must match.
Var add(const Var& a, const Var& b);

/// x * c for a constant c.
Var scale(const Var& x, float c);

/// Concatenate along the channel (dim 1) axis; N/H/W must match.
Var concat_channels(const std::vector<Var>& xs);

/// Top-left spatial crop to (h, w); gradient zero-pads back.
Var crop2d(const Var& x, int h, int w);

/// Reduction mode for losses.
enum class Reduction { kSum, kMean };

/// L1 loss |pred - target| reduced to a scalar. The paper's Eq. (3) uses the
/// sum over the m x n tiles.
Var l1_loss(const Var& pred, const Tensor& target,
            Reduction reduction = Reduction::kSum);

/// Reduce over the batch axis: out[0,c,h,w] = max_n x[n,c,h,w].
Var batch_max(const Var& x);

/// Reduce over the batch axis: out[0,c,h,w] = min_n x[n,c,h,w].
Var batch_min(const Var& x);

/// Reduce over the batch axis: out[0,c,h,w] = mu + 3*sigma of x[:,c,h,w]
/// (population standard deviation, matching Algorithm 1's statistics).
Var batch_mean3sigma(const Var& x);

}  // namespace pdnn::nn
