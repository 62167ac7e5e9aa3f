// Differentiable 2-D convolution and transposed convolution.
//
// The paper's subnets prescribe: 3x3 kernels, stride-2 convolutions for
// downsampling with *replication* padding, stride-2 transposed convolutions
// for upsampling with *zero* padding, and stride-1 convolutions after each
// (§3.4.1). Both ops are implemented via im2col + GEMM; backward reuses the
// same lowering with the operand roles exchanged.
#pragma once

#include <cstdint>

#include "nn/autograd.hpp"

namespace pdnn::nn {

/// Boundary handling for convolution padding.
enum class PadMode {
  kZero,       ///< out-of-bounds reads are zero
  kReplicate,  ///< out-of-bounds reads clamp to the nearest edge pixel
};

/// y = conv2d(x, w) + b.
///   x: N x Cin x H x W
///   w: Cout x Cin x kh x kw
///   b: Cout
/// Output spatial size: (H + 2*pad - kh) / stride + 1 (floor).
Var conv2d(const Var& x, const Var& w, const Var& b, int stride, int pad,
           PadMode mode);

/// y = conv_transpose2d(x, w) + b (the adjoint of conv2d's linear map).
///   x: N x Cin x H x W
///   w: Cin x Cout x kh x kw
///   b: Cout
/// Output spatial size: (H - 1)*stride - 2*pad + kh + output_padding.
/// Padding is always zero-mode, per the paper.
Var conv_transpose2d(const Var& x, const Var& w, const Var& b, int stride,
                     int pad, int output_padding);

/// dw (rows x ckk) += lhs (rows x k) * col^T, with col (ckk x k) in im2col
/// layout: the weight gradient of both convolutions, a GEMM whose second
/// operand is transposed. It runs as the nn-shaped product
/// dw_t (ckk x rows) = col * lhs^T into a zeroed per-thread buffer, followed
/// by one transposed add into dw. Each dw element is therefore its k
/// products summed in ascending order from +0.0f, then added to dw once --
/// the same bits as the direct rows x ckk dot products, on either kernel
/// backend and at any pool size. ckk lies on gemm_nn's row axis, so a large
/// gradient splits into row panels across the pool.
void accumulate_weight_grad(int rows, int ckk, std::int64_t k,
                            const float* lhs, const float* col, float* dw);

/// Free the im2col and weight-gradient scratch capacity of every thread
/// that has run a convolution (the buffers are thread_local and otherwise
/// hold their peak size for the thread's lifetime). Call at a quiescent
/// point — e.g. the end of training — with no conv2d/conv_transpose2d in
/// flight; the buffers reallocate lazily on the next convolution.
void release_conv_scratch();

/// Expected output length of conv2d along one spatial axis.
inline int conv_out_size(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// Expected output length of conv_transpose2d along one spatial axis.
inline int conv_transpose_out_size(int in, int kernel, int stride, int pad,
                                   int output_padding) {
  return (in - 1) * stride - 2 * pad + kernel + output_padding;
}

}  // namespace pdnn::nn
