#include "nn/conv.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::nn {

namespace {

/// The output columns of one kernel tap that read inside a row of `w`
/// pixels: column ow reads pixel ow * stride - pad + kj, which lies left of
/// the row for ow < lo, inside it for lo <= ow < hi and right of it for
/// ow >= hi. Both bounds are clamped to the wo columns there are.
struct TapSpan {
  int lo = 0;
  int hi = 0;
};

TapSpan tap_span(int w, int wo, int stride, int pad, int kj) {
  const int left = pad - kj;       // ow * stride < left falls left of the row
  const int right = w + pad - kj;  // ow * stride < right falls inside it
  const auto columns_below = [&](int bound) {
    return bound <= 0 ? 0 : std::min(wo, (bound + stride - 1) / stride);
  };
  return {columns_below(left), columns_below(right)};
}

/// Lower one sample (C x H x W) into columns:
///   col[(c*kh+ki)*kw + kj][oh*wo + ow] = src[c][oh*s - p + ki][ow*s - p + kj]
/// with the boundary handled per `mode`. The column grid (ho x wo) is passed
/// in explicitly so the same routine serves conv forward and the transposed
/// convolution's backward, where the grid is the *input* geometry. Each
/// column row is three straight runs: the left halo, the in-bounds interior
/// (a copy, strided for stride > 1) and the right halo.
void im2col(const float* src, int c, int h, int w, int kh, int kw, int stride,
            int pad, PadMode mode, int ho, int wo, float* col) {
  const std::int64_t owo = static_cast<std::int64_t>(ho) * wo;
  const bool replicate = mode == PadMode::kReplicate;
  for (int ch = 0; ch < c; ++ch) {
    const float* plane = src + static_cast<std::int64_t>(ch) * h * w;
    for (int ki = 0; ki < kh; ++ki) {
      for (int kj = 0; kj < kw; ++kj) {
        float* dst =
            col +
            (static_cast<std::int64_t>(ch) * kh * kw + ki * kw + kj) * owo;
        const TapSpan span = tap_span(w, wo, stride, pad, kj);
        const int inner = span.hi - span.lo;
        const int iw0 = span.lo * stride - pad + kj;  // first inner pixel
        for (int oh = 0; oh < ho; ++oh) {
          float* out_row = dst + static_cast<std::int64_t>(oh) * wo;
          int ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= h) {
            if (!replicate) {
              std::fill(out_row, out_row + wo, 0.0f);
              continue;
            }
            ih = std::clamp(ih, 0, h - 1);
          }
          const float* in_row = plane + static_cast<std::int64_t>(ih) * w;
          std::fill(out_row, out_row + span.lo, replicate ? in_row[0] : 0.0f);
          float* inner_out = out_row + span.lo;
          if (stride == 1) {
            for (int t = 0; t < inner; ++t) inner_out[t] = in_row[iw0 + t];
          } else {
            for (int t = 0; t < inner; ++t) {
              inner_out[t] = in_row[iw0 + t * stride];
            }
          }
          std::fill(out_row + span.hi, out_row + wo,
                    replicate ? in_row[w - 1] : 0.0f);
        }
      }
    }
  }
}

/// Adjoint of im2col: scatter-add columns back into the image. Replication
/// padding accumulates clamped reads into the edge pixels, making this the
/// exact transpose of the forward lowering. Every pixel receives its adds in
/// ascending column order, as a per-column loop would make them: a row's
/// left-halo adds into pixel 0 come before its interior adds, and its
/// right-halo adds into pixel w - 1 after them.
void col2im_acc(const float* col, int c, int h, int w, int kh, int kw,
                int stride, int pad, PadMode mode, int ho, int wo, float* dst) {
  const std::int64_t owo = static_cast<std::int64_t>(ho) * wo;
  const bool replicate = mode == PadMode::kReplicate;
  for (int ch = 0; ch < c; ++ch) {
    float* plane = dst + static_cast<std::int64_t>(ch) * h * w;
    for (int ki = 0; ki < kh; ++ki) {
      for (int kj = 0; kj < kw; ++kj) {
        const float* src =
            col +
            (static_cast<std::int64_t>(ch) * kh * kw + ki * kw + kj) * owo;
        const TapSpan span = tap_span(w, wo, stride, pad, kj);
        const int inner = span.hi - span.lo;
        const int iw0 = span.lo * stride - pad + kj;  // first inner pixel
        for (int oh = 0; oh < ho; ++oh) {
          int ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= h) {
            if (!replicate) continue;
            ih = std::clamp(ih, 0, h - 1);
          }
          float* out_row = plane + static_cast<std::int64_t>(ih) * w;
          const float* in_row = src + static_cast<std::int64_t>(oh) * wo;
          if (replicate) {
            float edge = out_row[0];
            for (int ow = 0; ow < span.lo; ++ow) edge += in_row[ow];
            out_row[0] = edge;
          }
          const float* inner_in = in_row + span.lo;
          if (stride == 1) {
            for (int t = 0; t < inner; ++t) out_row[iw0 + t] += inner_in[t];
          } else {
            for (int t = 0; t < inner; ++t) {
              out_row[iw0 + t * stride] += inner_in[t];
            }
          }
          if (replicate) {
            float edge = out_row[w - 1];
            for (int ow = span.hi; ow < wo; ++ow) edge += in_row[ow];
            out_row[w - 1] = edge;
          }
        }
      }
    }
  }
}

/// Reusable per-thread scratch to avoid per-call allocation in the training
/// loop. Buffers self-register so release_conv_scratch() can drop every
/// thread's peak-sized capacity once training ends, and deregister when
/// their thread exits (e.g. the global pool is resized). The registry is
/// intentionally leaked: worker thread_local destructors may run during
/// static teardown, after this translation unit's statics would have died.
struct ConvScratch {
  ConvScratch();
  ~ConvScratch();
  std::vector<float> a, b;
  std::vector<float> lhs_t, dw_t;  ///< accumulate_weight_grad's operands
};

std::mutex& scratch_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::vector<ConvScratch*>& scratch_registry() {
  static auto* registry = new std::vector<ConvScratch*>();
  return *registry;
}

ConvScratch::ConvScratch() {
  const std::lock_guard<std::mutex> lock(scratch_mu());
  scratch_registry().push_back(this);
}

ConvScratch::~ConvScratch() {
  const std::lock_guard<std::mutex> lock(scratch_mu());
  std::vector<ConvScratch*>& registry = scratch_registry();
  registry.erase(std::remove(registry.begin(), registry.end(), this),
                 registry.end());
}

ConvScratch& scratch() {
  thread_local ConvScratch buffers;
  return buffers;
}

std::vector<float>& scratch_a() { return scratch().a; }
std::vector<float>& scratch_b() { return scratch().b; }

/// High-water mark of im2col scratch, in bytes. The buffer size depends only
/// on layer geometry (never on the thread count), so the gauge is
/// deterministic even though each worker reports its own buffer.
inline void note_im2col_bytes(const std::vector<float>& col) {
  obs::counter_max(obs::Counter::kConvIm2colBytesMax,
                   static_cast<std::int64_t>(col.size() * sizeof(float)));
}

}  // namespace

void accumulate_weight_grad(int rows, int ckk, std::int64_t k, const float* lhs,
                            const float* col, float* dw) {
  std::vector<float>& lhs_t = scratch().lhs_t;
  std::vector<float>& dw_t = scratch().dw_t;
  lhs_t.resize(static_cast<std::size_t>(k) * rows);
  dw_t.resize(static_cast<std::size_t>(ckk) * rows);
  for (int r = 0; r < rows; ++r) {
    const float* src = lhs + r * k;
    for (std::int64_t p = 0; p < k; ++p) lhs_t[p * rows + r] = src[p];
  }
  linalg::gemm_nn(ckk, rows, static_cast<int>(k), 1.0f, col,
                  static_cast<int>(k), lhs_t.data(), rows, 0.0f, dw_t.data(),
                  rows);
  for (int r = 0; r < rows; ++r) {
    float* dst = dw + static_cast<std::int64_t>(r) * ckk;
    for (int q = 0; q < ckk; ++q) {
      dst[q] += dw_t[static_cast<std::size_t>(q) * rows + r];
    }
  }
}

void release_conv_scratch() {
  const std::lock_guard<std::mutex> lock(scratch_mu());
  for (ConvScratch* s : scratch_registry()) {
    for (std::vector<float>* buffer : {&s->a, &s->b, &s->lhs_t, &s->dw_t}) {
      buffer->clear();
      buffer->shrink_to_fit();
    }
  }
}

Var conv2d(const Var& x, const Var& w, const Var& b, int stride, int pad,
           PadMode mode) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  const Tensor& bv = b.value();
  PDN_CHECK(xv.ndim() == 4 && wv.ndim() == 4, "conv2d: expects 4-D tensors");
  PDN_CHECK(xv.c() == wv.c(), "conv2d: channel mismatch");
  PDN_CHECK(bv.ndim() == 1 && bv.dim(0) == wv.n(), "conv2d: bias mismatch");
  PDN_CHECK(stride >= 1 && pad >= 0, "conv2d: bad stride/pad");

  const int n = xv.n(), cin = xv.c(), h = xv.h(), wd = xv.w();
  const int cout = wv.n(), kh = wv.h(), kw = wv.w();
  const int ho = conv_out_size(h, kh, stride, pad);
  const int wo = conv_out_size(wd, kw, stride, pad);
  PDN_CHECK(ho > 0 && wo > 0, "conv2d: output collapses to zero size");

  const int ckk = cin * kh * kw;
  const std::int64_t owo = static_cast<std::int64_t>(ho) * wo;
  Tensor out({n, cout, ho, wo});

  // Samples write disjoint output slices, so the batch fans out across the
  // pool; each worker lowers into its own thread_local scratch. Single-sample
  // batches fall through to the pool inside the gemm instead. The paper net's
  // 3x3 / pad-1 layers qualify for the registry's fused path, which computes
  // the identical bits to im2col + gemm_nn without materializing the columns;
  // conv3x3_fused() returns false (and we lower classically) when the active
  // backend has no fused kernel.
  const bool fusable = kh == 3 && kw == 3 && pad == 1;
  obs::TraceSpan fwd_span("conv2d.forward", "batch", n);
  util::parallel_for(n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bidx = b0; bidx < b1; ++bidx) {
      const float* src = xv.data() + bidx * cin * h * wd;
      float* dst = out.data() + bidx * cout * owo;
      bool fused = false;
      if (fusable) {
        linalg::Conv3x3Args fargs;
        fargs.src = src;
        fargs.weights = wv.data();
        fargs.dst = dst;
        fargs.cin = cin;
        fargs.h = h;
        fargs.w = wd;
        fargs.cout = cout;
        fargs.ho = ho;
        fargs.wo = wo;
        fargs.stride = stride;
        fargs.replicate = mode == PadMode::kReplicate;
        fused = linalg::conv3x3_fused(fargs);
      }
      if (!fused) {
        std::vector<float>& col = scratch_a();
        col.resize(static_cast<std::size_t>(ckk) * owo);
        note_im2col_bytes(col);
        im2col(src, cin, h, wd, kh, kw, stride, pad, mode, ho, wo, col.data());
        linalg::gemm_nn(cout, static_cast<int>(owo), ckk, 1.0f, wv.data(), ckk,
                        col.data(), static_cast<int>(owo), 0.0f, dst,
                        static_cast<int>(owo));
      }
      for (int co = 0; co < cout; ++co) {
        const float bias = bv.data()[co];
        float* row = dst + static_cast<std::int64_t>(co) * owo;
        for (std::int64_t i = 0; i < owo; ++i) row[i] += bias;
      }
    }
  });

  auto backward = [xv, wv, stride, pad, mode, n, cin, h, wd, cout, kh, kw, ho,
                   wo, ckk, owo](Node& node) {
    const NodePtr& px = node.parents[0];
    const NodePtr& pw = node.parents[1];
    const NodePtr& pb = node.parents[2];
    const float* gy = node.grad.data();

    const bool need_b = pb->requires_grad;
    const bool need_w = pw->requires_grad;
    const bool need_x = px->requires_grad;
    if (!need_b && !need_w && !need_x) return;

    obs::TraceSpan bwd_span("conv2d.backward", "batch", n);
    // dX slices are disjoint per sample, but dW and db reduce across the
    // batch. The batch is cut into a fixed number of chunks (independent of
    // the thread count); each chunk accumulates float partials in sample
    // order, and the partials fold into the grads in chunk order — the same
    // bits for 1 or N pool threads.
    float* gb = need_b ? pb->ensure_grad().data() : nullptr;
    float* gw = need_w ? pw->ensure_grad().data() : nullptr;
    float* gx0 = need_x ? px->ensure_grad().data() : nullptr;
    const std::int64_t chunks = util::reduction_chunks(n);
    const std::int64_t wsz = static_cast<std::int64_t>(cout) * ckk;
    std::vector<float> db_part(
        need_b ? static_cast<std::size_t>(chunks) * cout : 0, 0.0f);
    std::vector<float> dw_part(
        need_w ? static_cast<std::size_t>(chunks * wsz) : 0, 0.0f);

    util::ThreadPool::global().run(chunks, [&](std::int64_t ci) {
      const util::ChunkRange r = util::reduction_range(n, chunks, ci);
      float* db = need_b ? db_part.data() + ci * cout : nullptr;
      float* dw = need_w ? dw_part.data() + ci * wsz : nullptr;
      std::vector<float>& col = scratch_a();
      std::vector<float>& dcol = scratch_b();
      if (need_w || need_x) {
        col.resize(static_cast<std::size_t>(ckk) * owo);
        dcol.resize(static_cast<std::size_t>(ckk) * owo);
        note_im2col_bytes(col);
      }
      for (std::int64_t bidx = r.begin; bidx < r.end; ++bidx) {
        const float* gy_b = gy + bidx * cout * owo;
        if (need_b) {
          for (int co = 0; co < cout; ++co) {
            const float* row = gy_b + static_cast<std::int64_t>(co) * owo;
            double acc = 0.0;
            for (std::int64_t i = 0; i < owo; ++i) acc += row[i];
            db[co] += static_cast<float>(acc);
          }
        }
        if (need_w) {
          const float* src = xv.data() + bidx * cin * h * wd;
          im2col(src, cin, h, wd, kh, kw, stride, pad, mode, ho, wo,
                 col.data());
          // dW_chunk += gy_b (Cout x OWO) * col^T (OWO x CKK).
          accumulate_weight_grad(cout, ckk, owo, gy_b, col.data(), dw);
        }
        if (need_x) {
          // dcol = W^T (CKK x Cout) * gy_b (Cout x OWO).
          linalg::gemm_tn(ckk, static_cast<int>(owo), cout, 1.0f, wv.data(),
                          ckk, gy_b, static_cast<int>(owo), 0.0f, dcol.data(),
                          static_cast<int>(owo));
          col2im_acc(dcol.data(), cin, h, wd, kh, kw, stride, pad, mode, ho,
                     wo, gx0 + bidx * cin * h * wd);
        }
      }
    });

    for (std::int64_t ci = 0; ci < chunks; ++ci) {
      if (need_b) {
        const float* db = db_part.data() + ci * cout;
        for (int co = 0; co < cout; ++co) gb[co] += db[co];
      }
      if (need_w) {
        const float* dw = dw_part.data() + ci * wsz;
        for (std::int64_t i = 0; i < wsz; ++i) gw[i] += dw[i];
      }
    }
  };

  return Var::from_op(out, {x.node(), w.node(), b.node()}, backward);
}

Var conv_transpose2d(const Var& x, const Var& w, const Var& b, int stride,
                     int pad, int output_padding) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  const Tensor& bv = b.value();
  PDN_CHECK(xv.ndim() == 4 && wv.ndim() == 4,
            "conv_transpose2d: expects 4-D tensors");
  PDN_CHECK(xv.c() == wv.n(), "conv_transpose2d: channel mismatch");
  PDN_CHECK(bv.ndim() == 1 && bv.dim(0) == wv.c(),
            "conv_transpose2d: bias mismatch");
  PDN_CHECK(stride >= 1 && pad >= 0 && output_padding >= 0 &&
                output_padding < stride,
            "conv_transpose2d: bad stride/pad/output_padding");

  const int n = xv.n(), cin = xv.c(), h = xv.h(), wd = xv.w();
  const int cout = wv.c(), kh = wv.h(), kw = wv.w();
  const int ho = conv_transpose_out_size(h, kh, stride, pad, output_padding);
  const int wo = conv_transpose_out_size(wd, kw, stride, pad, output_padding);
  PDN_CHECK(ho > 0 && wo > 0, "conv_transpose2d: output collapses");

  const int ckk = cout * kh * kw;
  const std::int64_t hw = static_cast<std::int64_t>(h) * wd;
  const std::int64_t out_hw = static_cast<std::int64_t>(ho) * wo;
  Tensor out({n, cout, ho, wo});

  // Per-sample output slices are disjoint; fan the batch out across the pool.
  obs::TraceSpan fwd_span("convT.forward", "batch", n);
  util::parallel_for(n, 1, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float>& col = scratch_a();
    col.resize(static_cast<std::size_t>(ckk) * hw);
    note_im2col_bytes(col);
    for (std::int64_t bidx = b0; bidx < b1; ++bidx) {
      const float* src = xv.data() + bidx * cin * hw;
      float* dst = out.data() + bidx * cout * out_hw;
      // col (CKK x HW) = W^T (CKK x Cin) * x (Cin x HW); W viewed Cin x CKK.
      linalg::gemm_tn(ckk, static_cast<int>(hw), cin, 1.0f, wv.data(), ckk,
                      src, static_cast<int>(hw), 0.0f, col.data(),
                      static_cast<int>(hw));
      // Scatter columns into the output image: image geometry (ho x wo),
      // column grid = input geometry (h x wd). Zero padding by construction.
      col2im_acc(col.data(), cout, ho, wo, kh, kw, stride, pad, PadMode::kZero,
                 h, wd, dst);
      for (int co = 0; co < cout; ++co) {
        const float bias = bv.data()[co];
        float* row = dst + static_cast<std::int64_t>(co) * out_hw;
        for (std::int64_t i = 0; i < out_hw; ++i) row[i] += bias;
      }
    }
  });

  auto backward = [xv, wv, stride, pad, n, cin, h, wd, cout, kh, kw, ho, wo,
                   ckk, hw, out_hw](Node& node) {
    const NodePtr& px = node.parents[0];
    const NodePtr& pw = node.parents[1];
    const NodePtr& pb = node.parents[2];
    const float* gy = node.grad.data();

    const bool need_b = pb->requires_grad;
    const bool need_w = pw->requires_grad;
    const bool need_x = px->requires_grad;
    if (!need_b && !need_w && !need_x) return;

    obs::TraceSpan bwd_span("convT.backward", "batch", n);
    // Same deterministic chunked reduction as conv2d: fixed chunk partition,
    // per-chunk partials for dW/db, chunk-order fold.
    float* gb = need_b ? pb->ensure_grad().data() : nullptr;
    float* gw = need_w ? pw->ensure_grad().data() : nullptr;
    float* gx0 = need_x ? px->ensure_grad().data() : nullptr;
    const std::int64_t chunks = util::reduction_chunks(n);
    const std::int64_t wsz = static_cast<std::int64_t>(cin) * ckk;
    std::vector<float> db_part(
        need_b ? static_cast<std::size_t>(chunks) * cout : 0, 0.0f);
    std::vector<float> dw_part(
        need_w ? static_cast<std::size_t>(chunks * wsz) : 0, 0.0f);

    util::ThreadPool::global().run(chunks, [&](std::int64_t ci) {
      const util::ChunkRange r = util::reduction_range(n, chunks, ci);
      float* db = need_b ? db_part.data() + ci * cout : nullptr;
      float* dw = need_w ? dw_part.data() + ci * wsz : nullptr;
      std::vector<float>& col = scratch_a();
      if (need_w || need_x) {
        col.resize(static_cast<std::size_t>(ckk) * hw);
        note_im2col_bytes(col);
      }
      for (std::int64_t bidx = r.begin; bidx < r.end; ++bidx) {
        const float* gy_b = gy + bidx * cout * out_hw;
        if (need_b) {
          for (int co = 0; co < cout; ++co) {
            const float* row = gy_b + static_cast<std::int64_t>(co) * out_hw;
            double acc = 0.0;
            for (std::int64_t i = 0; i < out_hw; ++i) acc += row[i];
            db[co] += static_cast<float>(acc);
          }
        }
        if (!need_w && !need_x) continue;
        // Lower the output gradient over the *input* grid: the adjoint of
        // the forward scatter.
        im2col(gy_b, cout, ho, wo, kh, kw, stride, pad, PadMode::kZero, h, wd,
               col.data());
        if (need_x) {
          // dX (Cin x HW) += W (Cin x CKK) * col (CKK x HW).
          linalg::gemm_nn(cin, static_cast<int>(hw), ckk, 1.0f, wv.data(),
                          ckk, col.data(), static_cast<int>(hw), 1.0f,
                          gx0 + bidx * cin * hw, static_cast<int>(hw));
        }
        if (need_w) {
          // dW_chunk (Cin x CKK) += x (Cin x HW) * col^T (HW x CKK).
          accumulate_weight_grad(cin, ckk, hw, xv.data() + bidx * cin * hw,
                                 col.data(), dw);
        }
      }
    });

    for (std::int64_t ci = 0; ci < chunks; ++ci) {
      if (need_b) {
        const float* db = db_part.data() + ci * cout;
        for (int co = 0; co < cout; ++co) gb[co] += db[co];
      }
      if (need_w) {
        const float* dw = dw_part.data() + ci * wsz;
        for (std::int64_t i = 0; i < wsz; ++i) gw[i] += dw[i];
      }
    }
  };

  return Var::from_op(out, {x.node(), w.node(), b.node()}, backward);
}

}  // namespace pdnn::nn
