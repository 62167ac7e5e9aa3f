// Autograd correctness: every non-conv op is gradient-checked against
// central finite differences, plus tape mechanics (NoGradGuard, reuse,
// accumulation through shared nodes).
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

using nn::Tensor;
using nn::Var;
using testutil::expect_gradients_match;

Tensor random_tensor(std::vector<int> shape, util::Rng& rng,
                     float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

TEST(Ops, ReluForward) {
  const Tensor x = Tensor::from_data({1, 1, 1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Var y = nn::relu(Var(x));
  EXPECT_FLOAT_EQ(y.value().data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value().data()[2], 2.0f);
}

TEST(Ops, ReluGradcheck) {
  util::Rng rng(1);
  // Keep values away from the kink at 0 for a clean finite difference.
  Tensor x = random_tensor({2, 3, 4, 4}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x.data()[i]) < 0.1f) x.data()[i] = 0.5f;
  }
  expect_gradients_match(
      [](std::vector<Var>& v) {
        return nn::l1_loss(nn::relu(v[0]), Tensor::zeros({2, 3, 4, 4}));
      },
      {x});
}

TEST(Ops, AddSubScaleGradcheck) {
  util::Rng rng(2);
  const Tensor a = random_tensor({1, 2, 3, 3}, rng);
  const Tensor b = random_tensor({1, 2, 3, 3}, rng);
  const Tensor target = random_tensor({1, 2, 3, 3}, rng, 3.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::add(v[0], nn::scale(v[1], -2.5f)), target);
      },
      {a, b});
}

TEST(Ops, AddRejectsShapeMismatch) {
  EXPECT_THROW(nn::add(Var(Tensor({2})), Var(Tensor({3}))), util::CheckError);
}

TEST(Ops, ConcatForwardLayout) {
  const Tensor a = Tensor::full({1, 1, 2, 2}, 1.0f);
  const Tensor b = Tensor::full({1, 2, 2, 2}, 2.0f);
  const Var y = nn::concat_channels({Var(a), Var(b)});
  EXPECT_EQ(y.value().c(), 3);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 1, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 2, 0, 1), 2.0f);
}

TEST(Ops, ConcatGradcheck) {
  util::Rng rng(3);
  const Tensor a = random_tensor({2, 1, 3, 2}, rng);
  const Tensor b = random_tensor({2, 2, 3, 2}, rng);
  const Tensor target = random_tensor({2, 3, 3, 2}, rng, 2.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::concat_channels({v[0], v[1]}), target);
      },
      {a, b});
}

TEST(Ops, CropForwardAndGradcheck) {
  util::Rng rng(4);
  const Tensor x = random_tensor({1, 2, 5, 6}, rng);
  const Var y = nn::crop2d(Var(x), 3, 4);
  EXPECT_EQ(y.value().h(), 3);
  EXPECT_EQ(y.value().w(), 4);
  EXPECT_FLOAT_EQ(y.value().at4(0, 1, 2, 3), x.at4(0, 1, 2, 3));

  const Tensor target = random_tensor({1, 2, 3, 4}, rng, 2.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::crop2d(v[0], 3, 4), target);
      },
      {x});
}

TEST(Ops, CropRejectsUpscale) {
  EXPECT_THROW(nn::crop2d(Var(Tensor({1, 1, 2, 2})), 3, 2), util::CheckError);
}

TEST(Ops, L1LossValues) {
  const Tensor p = Tensor::from_data({1, 1, 1, 3}, {1.0f, 2.0f, 3.0f});
  const Tensor t = Tensor::from_data({1, 1, 1, 3}, {2.0f, 2.0f, 1.0f});
  EXPECT_FLOAT_EQ(nn::l1_loss(Var(p), t, nn::Reduction::kSum).value().item(),
                  3.0f);
  EXPECT_FLOAT_EQ(nn::l1_loss(Var(p), t, nn::Reduction::kMean).value().item(),
                  1.0f);
}

TEST(Ops, BatchMaxMinForward) {
  Tensor x({3, 1, 1, 2});
  // element 0 over batch: {1, 5, 3}; element 1: {-2, 0, -7}.
  x.at4(0, 0, 0, 0) = 1;  x.at4(0, 0, 0, 1) = -2;
  x.at4(1, 0, 0, 0) = 5;  x.at4(1, 0, 0, 1) = 0;
  x.at4(2, 0, 0, 0) = 3;  x.at4(2, 0, 0, 1) = -7;
  const Var mx = nn::batch_max(Var(x));
  const Var mn = nn::batch_min(Var(x));
  EXPECT_FLOAT_EQ(mx.value().at4(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(mx.value().at4(0, 0, 0, 1), 0.0f);
  EXPECT_FLOAT_EQ(mn.value().at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mn.value().at4(0, 0, 0, 1), -7.0f);
}

TEST(Ops, BatchMaxGradcheck) {
  util::Rng rng(5);
  Tensor x = random_tensor({4, 2, 2, 2}, rng);
  // Separate the batch entries so the argmax is stable under perturbation.
  for (int b = 0; b < 4; ++b) {
    for (std::int64_t i = 0; i < 8; ++i) {
      x.data()[b * 8 + i] += static_cast<float>(b) * 0.7f;
    }
  }
  const Tensor target = random_tensor({1, 2, 2, 2}, rng, 2.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::batch_max(v[0]), target);
      },
      {x}, /*eps=*/1e-3f);
}

TEST(Ops, BatchMinGradcheck) {
  util::Rng rng(6);
  Tensor x = random_tensor({3, 1, 3, 3}, rng);
  for (int b = 0; b < 3; ++b) {
    for (std::int64_t i = 0; i < 9; ++i) {
      x.data()[b * 9 + i] -= static_cast<float>(b) * 0.9f;
    }
  }
  const Tensor target = random_tensor({1, 1, 3, 3}, rng, 2.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::batch_min(v[0]), target);
      },
      {x}, /*eps=*/1e-3f);
}

TEST(Ops, BatchMean3SigmaForward) {
  Tensor x({2, 1, 1, 1});
  x.data()[0] = 1.0f;
  x.data()[1] = 3.0f;  // mu = 2, sigma = 1 (population)
  const Var y = nn::batch_mean3sigma(Var(x));
  EXPECT_NEAR(y.value().item(), 5.0f, 1e-5f);
}

TEST(Ops, BatchMean3SigmaGradcheck) {
  util::Rng rng(7);
  const Tensor x = random_tensor({5, 1, 2, 3}, rng);
  const Tensor target = random_tensor({1, 1, 2, 3}, rng, 5.0f);
  expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(nn::batch_mean3sigma(v[0]), target);
      },
      {x}, /*eps=*/1e-3f, /*tol=*/3e-2f);
}

TEST(Autograd, GradAccumulatesThroughSharedNode) {
  // y = x + x: dy/dx = 2 on every element.
  const Tensor x = Tensor::full({1, 1, 1, 2}, 3.0f);
  Var vx(x, /*requires_grad=*/true);
  Var loss = nn::l1_loss(nn::add(vx, vx), Tensor::zeros({1, 1, 1, 2}));
  loss.backward();
  EXPECT_FLOAT_EQ(vx.grad().data()[0], 2.0f);
  EXPECT_FLOAT_EQ(vx.grad().data()[1], 2.0f);
}

TEST(Autograd, NoGradGuardSkipsTape) {
  const Tensor x = Tensor::full({1, 1, 1, 2}, 1.0f);
  Var vx(x, /*requires_grad=*/true);
  nn::Var out;
  {
    nn::NoGradGuard guard;
    out = nn::relu(vx);
  }
  EXPECT_FALSE(out.requires_grad());
  EXPECT_THROW(out.backward(), util::CheckError);
}

TEST(Autograd, BackwardRequiresScalar) {
  Var v(Tensor({2, 2}), /*requires_grad=*/true);
  Var y = nn::relu(v);
  EXPECT_THROW(y.backward(), util::CheckError);
}

TEST(Autograd, LeafWithoutGradHasNoTape) {
  const Var a(Tensor::full({1, 1, 1, 1}, 2.0f), false);
  const Var b(Tensor::full({1, 1, 1, 1}, 3.0f), false);
  const Var c = nn::add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.node()->parents.empty());
}

TEST(Autograd, DiamondGraphGradients) {
  // loss = |relu(x) + scale(x, 2)|: both paths contribute.
  Tensor x = Tensor::full({1, 1, 1, 1}, 1.5f);
  Var vx(x, true);
  Var loss = nn::l1_loss(nn::add(nn::relu(vx), nn::scale(vx, 2.0f)),
                         Tensor::zeros({1, 1, 1, 1}));
  loss.backward();
  // d/dx (x + 2x) = 3, sign positive.
  EXPECT_FLOAT_EQ(vx.grad().data()[0], 3.0f);
}

}  // namespace
}  // namespace pdnn
