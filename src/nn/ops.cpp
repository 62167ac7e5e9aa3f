#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace pdnn::nn {

namespace {

/// True when this parent participates in the backward pass.
bool needs_grad(const NodePtr& p) { return p->requires_grad; }

}  // namespace

Var relu(const Var& x) {
  const Tensor& xv = x.value();
  Tensor out = xv.clone();
  float* o = out.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::max(o[i], 0.0f);

  return Var::from_op(out, {x.node()}, [xv](Node& node) {
    const NodePtr& p = node.parents[0];
    if (!needs_grad(p)) return;
    Tensor& gx = p->ensure_grad();
    const float* gy = node.grad.data();
    const float* xd = xv.data();
    float* g = gx.data();
    const std::int64_t n = gx.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      if (xd[i] > 0.0f) g[i] += gy[i];
    }
  });
}

Var add(const Var& a, const Var& b) {
  PDN_CHECK(a.value().same_shape(b.value()), "add: shape mismatch");
  Tensor out = a.value().clone();
  out.add_scaled(b.value(), 1.0f);
  return Var::from_op(out, {a.node(), b.node()}, [](Node& node) {
    for (const NodePtr& p : node.parents) {
      if (needs_grad(p)) p->ensure_grad().add_scaled(node.grad, 1.0f);
    }
  });
}

Var scale(const Var& x, float c) {
  Tensor out = x.value().clone();
  float* o = out.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] *= c;
  return Var::from_op(out, {x.node()}, [c](Node& node) {
    if (needs_grad(node.parents[0])) {
      node.parents[0]->ensure_grad().add_scaled(node.grad, c);
    }
  });
}

Var concat_channels(const std::vector<Var>& xs) {
  PDN_CHECK(!xs.empty(), "concat_channels: empty input");
  const Tensor& first = xs.front().value();
  PDN_CHECK(first.ndim() == 4, "concat_channels: expects NCHW");
  const int n = first.n(), h = first.h(), w = first.w();
  int c_total = 0;
  for (const Var& x : xs) {
    const Tensor& t = x.value();
    PDN_CHECK(t.ndim() == 4 && t.n() == n && t.h() == h && t.w() == w,
              "concat_channels: N/H/W mismatch");
    c_total += t.c();
  }

  Tensor out({n, c_total, h, w});
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  {
    float* dst = out.data();
    for (int b = 0; b < n; ++b) {
      for (const Var& x : xs) {
        const Tensor& t = x.value();
        const std::int64_t block = static_cast<std::int64_t>(t.c()) * plane;
        const float* src = t.data() + static_cast<std::int64_t>(b) * block;
        std::copy(src, src + block, dst);
        dst += block;
      }
    }
  }

  std::vector<NodePtr> parents;
  parents.reserve(xs.size());
  for (const Var& x : xs) parents.push_back(x.node());

  return Var::from_op(out, std::move(parents), [n, plane](Node& node) {
    const float* src = node.grad.data();
    for (int b = 0; b < n; ++b) {
      for (const NodePtr& p : node.parents) {
        const std::int64_t block =
            static_cast<std::int64_t>(p->value.c()) * plane;
        if (needs_grad(p)) {
          float* dst = p->ensure_grad().data() +
                       static_cast<std::int64_t>(b) * block;
          for (std::int64_t i = 0; i < block; ++i) dst[i] += src[i];
        }
        src += block;
      }
    }
  });
}

Var crop2d(const Var& x, int h, int w) {
  const Tensor& xv = x.value();
  PDN_CHECK(xv.ndim() == 4, "crop2d: expects NCHW");
  PDN_CHECK(h > 0 && h <= xv.h() && w > 0 && w <= xv.w(),
            "crop2d: target exceeds source");
  if (h == xv.h() && w == xv.w()) return x;

  const int n = xv.n(), c = xv.c(), sh = xv.h(), sw = xv.w();
  Tensor out({n, c, h, w});
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int r = 0; r < h; ++r) {
        const float* src = xv.data() +
            ((static_cast<std::int64_t>(b) * c + ch) * sh + r) * sw;
        float* dst = out.data() +
            ((static_cast<std::int64_t>(b) * c + ch) * h + r) * w;
        std::copy(src, src + w, dst);
      }

  return Var::from_op(out, {x.node()}, [n, c, h, w, sh, sw](Node& node) {
    const NodePtr& p = node.parents[0];
    if (!needs_grad(p)) return;
    Tensor& gx = p->ensure_grad();
    for (int b = 0; b < n; ++b)
      for (int ch = 0; ch < c; ++ch)
        for (int r = 0; r < h; ++r) {
          const float* src = node.grad.data() +
              ((static_cast<std::int64_t>(b) * c + ch) * h + r) * w;
          float* dst = gx.data() +
              ((static_cast<std::int64_t>(b) * c + ch) * sh + r) * sw;
          for (int q = 0; q < w; ++q) dst[q] += src[q];
        }
  });
}

Var l1_loss(const Var& pred, const Tensor& target, Reduction reduction) {
  const Tensor& pv = pred.value();
  PDN_CHECK(pv.same_shape(target), "l1_loss: shape mismatch");
  const std::int64_t n = pv.numel();
  const float* p = pv.data();
  const float* t = target.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += std::abs(p[i] - t[i]);
  const float norm =
      reduction == Reduction::kMean ? 1.0f / static_cast<float>(n) : 1.0f;
  Tensor out = Tensor::scalar(static_cast<float>(acc) * norm);

  return Var::from_op(out, {pred.node()}, [pv, target, norm](Node& node) {
    const NodePtr& parent = node.parents[0];
    if (!needs_grad(parent)) return;
    Tensor& gx = parent->ensure_grad();
    const float gy = node.grad.item() * norm;
    const float* p = pv.data();
    const float* t = target.data();
    float* g = gx.data();
    const std::int64_t n = gx.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const float d = p[i] - t[i];
      if (d > 0.0f) {
        g[i] += gy;
      } else if (d < 0.0f) {
        g[i] -= gy;
      }
    }
  });
}

namespace {

/// Shared implementation for batch_max / batch_min: records per-(c,h,w) the
/// batch index achieving the extreme so backward can scatter exactly there.
Var batch_extreme(const Var& x, bool take_max) {
  const Tensor& xv = x.value();
  PDN_CHECK(xv.ndim() == 4, "batch reduce: expects NCHW");
  const int n = xv.n(), c = xv.c();
  const std::int64_t plane = static_cast<std::int64_t>(xv.h()) * xv.w();
  const std::int64_t inner = static_cast<std::int64_t>(c) * plane;

  Tensor out({1, c, xv.h(), xv.w()});
  auto arg =
      std::make_shared<std::vector<int>>(static_cast<std::size_t>(inner), 0);
  const float* src = xv.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < inner; ++i) dst[i] = src[i];
  for (int b = 1; b < n; ++b) {
    const float* row = src + static_cast<std::int64_t>(b) * inner;
    for (std::int64_t i = 0; i < inner; ++i) {
      const bool better = take_max ? row[i] > dst[i] : row[i] < dst[i];
      if (better) {
        dst[i] = row[i];
        (*arg)[static_cast<std::size_t>(i)] = b;
      }
    }
  }

  return Var::from_op(out, {x.node()}, [arg, inner](Node& node) {
    const NodePtr& p = node.parents[0];
    if (!needs_grad(p)) return;
    Tensor& gx = p->ensure_grad();
    const float* gy = node.grad.data();
    float* g = gx.data();
    for (std::int64_t i = 0; i < inner; ++i) {
      const std::int64_t b = (*arg)[static_cast<std::size_t>(i)];
      g[b * inner + i] += gy[i];
    }
  });
}

}  // namespace

Var batch_max(const Var& x) { return batch_extreme(x, /*take_max=*/true); }
Var batch_min(const Var& x) { return batch_extreme(x, /*take_max=*/false); }

Var batch_mean3sigma(const Var& x) {
  const Tensor& xv = x.value();
  PDN_CHECK(xv.ndim() == 4, "batch_mean3sigma: expects NCHW");
  const int n = xv.n();
  const std::int64_t inner =
      static_cast<std::int64_t>(xv.c()) * xv.h() * xv.w();

  Tensor mean({1, xv.c(), xv.h(), xv.w()});
  Tensor sigma({1, xv.c(), xv.h(), xv.w()});
  Tensor out({1, xv.c(), xv.h(), xv.w()});
  const float* src = xv.data();
  for (std::int64_t i = 0; i < inner; ++i) {
    double mu = 0.0;
    for (int b = 0; b < n; ++b) {
      mu += src[static_cast<std::int64_t>(b) * inner + i];
    }
    mu /= n;
    double var = 0.0;
    for (int b = 0; b < n; ++b) {
      const double d = src[static_cast<std::int64_t>(b) * inner + i] - mu;
      var += d * d;
    }
    var /= n;  // population variance, as in Algorithm 1
    mean.data()[i] = static_cast<float>(mu);
    sigma.data()[i] = static_cast<float>(std::sqrt(var));
    out.data()[i] = static_cast<float>(mu + 3.0 * std::sqrt(var));
  }

  return Var::from_op(out, {x.node()}, [xv, mean, sigma, inner](Node& node) {
    const NodePtr& p = node.parents[0];
    if (!needs_grad(p)) return;
    Tensor& gx = p->ensure_grad();
    const int n = xv.n();
    const float* gy = node.grad.data();
    const float* src = xv.data();
    const float* mu = mean.data();
    const float* sd = sigma.data();
    float* g = gx.data();
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::int64_t i = 0; i < inner; ++i) {
      // d(mu + 3 sigma)/dx_b = 1/n + 3 (x_b - mu) / (n sigma).
      const float s = sd[i];
      for (int b = 0; b < n; ++b) {
        float d = inv_n;
        if (s > 1e-12f) {
          d += 3.0f * (src[static_cast<std::int64_t>(b) * inner + i] - mu[i]) *
               inv_n / s;
        }
        g[static_cast<std::int64_t>(b) * inner + i] += gy[i] * d;
      }
    }
  });
}

}  // namespace pdnn::nn
