// Determinism and correctness of the parallel execution layer: the thread
// pool itself, then bit-identical results for GEMM, conv forward/backward,
// and golden dataset generation at 1 vs. 4 pool threads, plus a gradient
// check through the parallel conv path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "gradcheck.hpp"
#include "linalg/gemm.hpp"
#include "nn/conv.hpp"
#include "nn/ops.hpp"
#include "scoped_env.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

using nn::PadMode;
using nn::Tensor;
using nn::Var;

/// Restore the default global pool when a test returns.
struct PoolGuard {
  explicit PoolGuard(int threads) {
    util::ThreadPool::set_global_threads(threads);
  }
  ~PoolGuard() { util::ThreadPool::set_global_threads(0); }
};

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ExecutesEveryChunkExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr int kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  pool.run(kChunks,
           [&](std::int64_t c) { ++hits[static_cast<std::size_t>(c)]; });
  for (int c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[static_cast<std::size_t>(c)].load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run(11, [&](std::int64_t) { ++count; });
    ASSERT_EQ(count.load(), 11);
  }
}

TEST(ThreadPool, NestedRunFallsBackToSerial) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.run(8, [&](std::int64_t) {
    // A nested run on the same (global-style) pool must not deadlock.
    pool.run(4, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.run(16,
                        [&](std::int64_t c) {
                          if (c == 7) throw std::runtime_error("chunk 7");
                        }),
               std::runtime_error);
  // The pool survives a failed job.
  std::atomic<int> count{0};
  pool.run(5, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int count = 0;  // no atomics needed: everything runs on this thread
  pool.run(9, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 9);
}

TEST(ThreadPool, DefaultThreadsRejectsMalformedEnv) {
  // default_threads() is what a pool of size <= 0 asks for, so it must
  // throw before any thread starts.
  for (const char* bad : {"8x", "abc", "99999999999"}) {
    const testutil::ScopedEnv env("PDNN_THREADS", bad);
    try {
      const int threads = util::ThreadPool::default_threads();
      ADD_FAILURE() << "PDNN_THREADS='" << bad << "' gave " << threads;
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PDNN_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  // Unset, empty and non-positive values fall back to the hardware.
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
  const char* const unset_values[] = {nullptr, "", "0", "-2"};
  for (const char* unset : unset_values) {
    const testutil::ScopedEnv env("PDNN_THREADS", unset);
    EXPECT_EQ(util::ThreadPool::default_threads(), fallback);
  }
  const testutil::ScopedEnv env("PDNN_THREADS", "3");
  EXPECT_EQ(util::ThreadPool::default_threads(), 3);
}

TEST(ThreadPool, ReductionPartitionIsThreadCountIndependent) {
  // The chunk partition depends only on (n, chunks) — never on pool size.
  const std::int64_t n = 37;
  const std::int64_t chunks = util::reduction_chunks(n);
  std::int64_t covered = 0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const util::ChunkRange r = util::reduction_range(n, chunks, c);
    EXPECT_LE(r.begin, r.end);
    covered += r.end - r.begin;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(util::reduction_chunks(5), 5);   // small batches: chunk per item
  EXPECT_EQ(util::reduction_chunks(500), 16);  // capped partial-buffer count
}

// --- GEMM determinism ------------------------------------------------------

/// Run one gemm variant at the given thread count; m is chosen > 64 so the
/// row-panel loop actually splits, and m*n*k exceeds the parallel threshold.
template <typename Fn>
std::vector<float> run_gemm(const Fn& gemm, int threads, int m, int n, int k) {
  PoolGuard guard(threads);
  util::Rng rng(77);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  for (float& v : c) v = static_cast<float>(rng.normal());
  gemm(m, n, k, 1.3f, a, b, 0.7f, c);
  return c;
}

TEST(ParallelGemm, NnBitIdenticalAcrossThreadCounts) {
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_nn(m, n, k, alpha, a.data(), k, b.data(), n, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 160, 144);
  for (int threads : {2, 3, 4}) {
    const auto ct = run_gemm(call, threads, 192, 160, 144);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

TEST(ParallelGemm, NtBitIdenticalAcrossThreadCounts) {
  // B is N x K for the NT variant.
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_nt(m, n, k, alpha, a.data(), k, b.data(), k, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 144, 160);
  for (int threads : {2, 4}) {
    const auto ct = run_gemm(call, threads, 192, 144, 160);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

TEST(ParallelGemm, TnBitIdenticalAcrossThreadCounts) {
  // A is K x M for the TN variant.
  const auto call = [](int m, int n, int k, float alpha,
                       const std::vector<float>& a, const std::vector<float>& b,
                       float beta, std::vector<float>& c) {
    linalg::gemm_tn(m, n, k, alpha, a.data(), m, b.data(), n, beta, c.data(),
                    n);
  };
  const auto c1 = run_gemm(call, 1, 192, 144, 160);
  for (int threads : {2, 4}) {
    const auto ct = run_gemm(call, threads, 192, 144, 160);
    EXPECT_TRUE(bit_equal(c1.data(), ct.data(), c1.size()))
        << threads << " threads";
  }
}

// --- Conv determinism ------------------------------------------------------

struct ConvRun {
  Tensor y, gx, gw, gb;
};

ConvRun run_conv(int threads) {
  PoolGuard guard(threads);
  util::Rng rng(31);
  const Tensor x = random_tensor({5, 3, 12, 10}, rng);
  const Tensor w = random_tensor({4, 3, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  const Tensor target = random_tensor({5, 4, 12, 10}, rng);

  Var vx(x.clone(), /*requires_grad=*/true);
  Var vw(w.clone(), /*requires_grad=*/true);
  Var vb(b.clone(), /*requires_grad=*/true);
  Var loss =
      nn::l1_loss(nn::conv2d(vx, vw, vb, 1, 1, PadMode::kReplicate), target);
  loss.backward();

  ConvRun r;
  r.y = loss.value().clone();
  r.gx = vx.node()->grad.clone();
  r.gw = vw.node()->grad.clone();
  r.gb = vb.node()->grad.clone();
  return r;
}

TEST(ParallelConv, ForwardAndGradsBitIdentical) {
  const ConvRun serial = run_conv(1);
  for (int threads : {2, 4}) {
    const ConvRun par = run_conv(threads);
    EXPECT_TRUE(bit_equal(serial.y.data(), par.y.data(),
                          static_cast<std::size_t>(serial.y.numel())));
    EXPECT_TRUE(bit_equal(serial.gx.data(), par.gx.data(),
                          static_cast<std::size_t>(serial.gx.numel())))
        << "dX, " << threads << " threads";
    EXPECT_TRUE(bit_equal(serial.gw.data(), par.gw.data(),
                          static_cast<std::size_t>(serial.gw.numel())))
        << "dW, " << threads << " threads";
    EXPECT_TRUE(bit_equal(serial.gb.data(), par.gb.data(),
                          static_cast<std::size_t>(serial.gb.numel())))
        << "db, " << threads << " threads";
  }
}

ConvRun run_conv_transpose(int threads) {
  PoolGuard guard(threads);
  util::Rng rng(33);
  const Tensor x = random_tensor({4, 3, 5, 5}, rng);
  const Tensor w = random_tensor({3, 2, 3, 3}, rng);
  const Tensor b = random_tensor({2}, rng);
  const Tensor target = random_tensor({4, 2, 11, 11}, rng);  // (5-1)*2+3

  Var vx(x.clone(), true);
  Var vw(w.clone(), true);
  Var vb(b.clone(), true);
  Var loss =
      nn::l1_loss(nn::conv_transpose2d(vx, vw, vb, 2, 0, 0), target);
  loss.backward();

  ConvRun r;
  r.y = loss.value().clone();
  r.gx = vx.node()->grad.clone();
  r.gw = vw.node()->grad.clone();
  r.gb = vb.node()->grad.clone();
  return r;
}

TEST(ParallelConv, TransposeForwardAndGradsBitIdentical) {
  const ConvRun serial = run_conv_transpose(1);
  const ConvRun par = run_conv_transpose(4);
  EXPECT_TRUE(bit_equal(serial.y.data(), par.y.data(),
                        static_cast<std::size_t>(serial.y.numel())));
  EXPECT_TRUE(bit_equal(serial.gx.data(), par.gx.data(),
                        static_cast<std::size_t>(serial.gx.numel())));
  EXPECT_TRUE(bit_equal(serial.gw.data(), par.gw.data(),
                        static_cast<std::size_t>(serial.gw.numel())));
  EXPECT_TRUE(bit_equal(serial.gb.data(), par.gb.data(),
                        static_cast<std::size_t>(serial.gb.numel())));
}

TEST(ParallelConv, GradcheckThroughParallelPath) {
  PoolGuard guard(4);
  util::Rng rng(35);
  const Tensor x = random_tensor({3, 2, 5, 4}, rng);
  const Tensor w = random_tensor({3, 2, 3, 3}, rng);
  const Tensor b = random_tensor({3}, rng);
  // Target = unperturbed prediction + a fixed margin: the finite-difference
  // probes (|delta pred| << 3) then never cross an |.| kink of the L1 loss,
  // while the loss magnitude stays small enough for float accuracy.
  Tensor target =
      nn::conv2d(Var(x), Var(w), Var(b), 1, 1, PadMode::kReplicate)
          .value()
          .clone();
  for (std::int64_t i = 0; i < target.numel(); ++i) target.data()[i] += 3.0f;
  testutil::expect_gradients_match(
      [&](std::vector<Var>& v) {
        return nn::l1_loss(
            nn::conv2d(v[0], v[1], v[2], 1, 1, PadMode::kReplicate), target);
      },
      {x, w, b}, /*eps=*/1e-2f, /*tol=*/3e-2f);
}

// --- Dataset determinism ---------------------------------------------------

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 5;
  s.tile_cols = 5;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 12;
  s.unit_current = 5e-3;
  s.seed = 31;
  return s;
}

core::RawDataset run_dataset(int threads, const pdn::PowerGrid& grid,
                             const sim::TransientSimulator& simulator) {
  PoolGuard guard(threads);
  vectors::VectorGenParams params;
  params.num_steps = 24;
  vectors::TestVectorGenerator gen(grid, params, 55);
  return core::simulate_dataset(grid, simulator, gen, 7);
}

TEST(ParallelDataset, BitIdenticalAcrossThreadCounts) {
  const pdn::PowerGrid grid(tiny_spec());
  const sim::TransientSimulator simulator(grid, {});
  const core::RawDataset serial = run_dataset(1, grid, simulator);
  const core::RawDataset par = run_dataset(4, grid, simulator);

  ASSERT_EQ(serial.samples.size(), par.samples.size());
  EXPECT_EQ(serial.current_scale, par.current_scale);  // exact, not near
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const core::RawSample& a = serial.samples[i];
    const core::RawSample& b = par.samples[i];
    ASSERT_EQ(a.current_maps.size(), b.current_maps.size());
    for (std::size_t t = 0; t < a.current_maps.size(); ++t) {
      EXPECT_TRUE(bit_equal(a.current_maps[t].data(), b.current_maps[t].data(),
                            a.current_maps[t].storage().size()))
          << "sample " << i << " map " << t;
    }
    EXPECT_TRUE(bit_equal(a.truth.data(), b.truth.data(),
                          a.truth.storage().size()))
        << "truth " << i;
  }
}

TEST(ParallelDataset, ProgressReportsEveryVector) {
  PoolGuard guard(4);
  const pdn::PowerGrid grid(tiny_spec());
  const sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 16;
  vectors::TestVectorGenerator gen(grid, params, 56);
  std::vector<int> seen;
  core::simulate_dataset(grid, simulator, gen, 5, [&](int done, int total) {
    EXPECT_EQ(total, 5);
    seen.push_back(done);  // callback is serialized under a mutex
  });
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
  }
}

}  // namespace
}  // namespace pdnn
