// google-benchmark micro suite for the substrate (DESIGN.md §3): envelope
// Cholesky factor/solve cost, CNN kernel throughput, Algorithm 1 cost, and
// the golden engine's per-step cost.
#include <benchmark/benchmark.h>

#include "core/dataset.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/conv.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "obs/obs.hpp"
#include "pdn/design.hpp"
#include "pdn/power_grid.hpp"
#include "sim/transient.hpp"
#include "sparse/cholesky.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vectors/generator.hpp"

namespace {

using namespace pdnn;

sparse::CsrMatrix grid_matrix(int n) {
  std::vector<sparse::Triplet> t;
  const auto id = [n](int r, int c) { return r * n + c; };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      t.push_back({id(r, c), id(r, c), 0.05});
      const auto stamp = [&](int a, int b) {
        t.push_back({a, a, 1.0});
        t.push_back({b, b, 1.0});
        t.push_back({a, b, -1.0});
        t.push_back({b, a, -1.0});
      };
      if (c + 1 < n) stamp(id(r, c), id(r, c + 1));
      if (r + 1 < n) stamp(id(r, c), id(r + 1, c));
    }
  }
  return sparse::CsrMatrix::from_triplets(n * n, t);
}

std::vector<double> random_rhs(int n) {
  util::Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.normal();
  return b;
}

void BM_CholeskyFactor(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sparse::BandCholesky chol;
    chol.factor(a);
    benchmark::DoNotOptimize(chol.band());
  }
  // Stored factor entries against the band a band Cholesky would hold.
  sparse::BandCholesky chol;
  chol.factor(a);
  state.counters["factor_entries"] = static_cast<double>(chol.factor_entries());
  state.counters["band_entries"] =
      static_cast<double>(chol.rows()) * (chol.band() + 1);
  state.SetLabel(std::to_string(a.rows()) + " nodes");
}
BENCHMARK(BM_CholeskyFactor)->Arg(32)->Arg(64)->Arg(96);

void BM_CholeskySolve(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<int>(state.range(0)));
  sparse::BandCholesky chol;
  chol.factor(a);
  const auto b = random_rhs(a.rows());
  std::vector<double> x;
  for (auto _ : state) {
    chol.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel(std::to_string(a.rows()) + " nodes");
}
BENCHMARK(BM_CholeskySolve)->Arg(32)->Arg(64)->Arg(96);

void BM_Conv2dForward(benchmark::State& state) {
  const int hw = static_cast<int>(state.range(0));
  util::Rng rng(3);
  nn::Conv2d conv(8, 8, 3, 1, 1, nn::PadMode::kReplicate, rng);
  nn::Tensor x({1, 8, hw, hw});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform());
  }
  nn::NoGradGuard guard;
  for (auto _ : state) {
    const nn::Var y = conv.forward(nn::Var(x));
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * hw * hw * 8 * 8 * 9);
}
BENCHMARK(BM_Conv2dForward)->Arg(32)->Arg(64)->Arg(128);

// --- Thread-pool scaling (PR: deterministic parallel execution layer) ------
//
// Each _Threads benchmark resizes the global pool from its first range
// argument, so running Arg(1)/Arg(2)/Arg(4) records the 1/2/4-thread scaling
// curve in the JSON perf trajectory. UseRealTime(): with an internal pool,
// wall clock is the quantity of interest, not summed CPU time.

void BM_GemmNnThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  util::ThreadPool::set_global_threads(threads);
  util::Rng rng(9);
  std::vector<float> a(static_cast<std::size_t>(dim) * dim);
  std::vector<float> b(static_cast<std::size_t>(dim) * dim);
  std::vector<float> c(static_cast<std::size_t>(dim) * dim, 0.0f);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  for (auto _ : state) {
    linalg::gemm_nn(dim, dim, dim, 1.0f, a.data(), dim, b.data(), dim, 0.0f,
                    c.data(), dim);
    benchmark::DoNotOptimize(c.data());
  }
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::set_enabled(was_enabled);
  state.counters["MFLOPS"] =
      benchmark::Counter(2.0 * dim * dim * dim * 1e-6,
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes_packed"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kKernelPackedBytes)) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * 2LL * dim * dim * dim);
  state.SetLabel(std::to_string(dim) + "^3, " + std::to_string(threads) +
                 " threads");
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_GemmNnThreads)
    ->Args({1, 512})
    ->Args({2, 512})
    ->Args({4, 512})
    ->UseRealTime();

// --- Kernel backend trajectory (PR: SIMD kernel registry) ------------------
//
// BM_GemmBackend / BM_ConvBackend force one registry backend per run (first
// range argument: 0 = scalar, 1 = avx2) at the paper net's shapes, so
// BENCH_kernels.json records the scalar/AVX2 throughput ratio; it is a record,
// not a gate (perfbench gates performance). MFLOPS is an iteration-invariant
// rate; bytes_packed is the per-iteration packing volume from the obs counter
// (0 for scalar, which packs nothing).

/// Force `backend`, or mark the run skipped when the host cannot run it.
bool force_backend_or_skip(benchmark::State& state,
                           linalg::KernelBackend backend) {
  if (!linalg::backend_supported(backend)) {
    state.SkipWithError((std::string(linalg::backend_name(backend)) +
                         " backend not supported on this machine")
                            .c_str());
    return false;
  }
  linalg::force_backend(backend);
  return true;
}

void BM_GemmBackend(benchmark::State& state) {
  const auto backend = static_cast<linalg::KernelBackend>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const int k = static_cast<int>(state.range(3));
  if (!force_backend_or_skip(state, backend)) return;
  util::Rng rng(9);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  for (auto _ : state) {
    linalg::gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
                    n);
    benchmark::DoNotOptimize(c.data());
  }
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::set_enabled(was_enabled);
  const double flops = 2.0 * m * n * static_cast<double>(k);
  state.counters["MFLOPS"] = benchmark::Counter(
      flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes_packed"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kKernelPackedBytes)) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flops));
  state.SetLabel(std::string(linalg::backend_name(backend)) + ", " +
                 std::to_string(m) + "x" + std::to_string(n) + "x" +
                 std::to_string(k));
  linalg::clear_forced_backend();
}
BENCHMARK(BM_GemmBackend)
    // Paper-net stride-1 conv lowered to GEMM: cout 8, 64x64 map, cin 8 x 9.
    ->Args({0, 8, 4096, 72})
    ->Args({1, 8, 4096, 72})
    // Stride-2 layer: cout 16, 32x32 map.
    ->Args({0, 16, 1024, 72})
    ->Args({1, 16, 1024, 72})
    // Square reference point shared with BM_GemmNnThreads.
    ->Args({0, 512, 512, 512})
    ->Args({1, 512, 512, 512});

/// Ranges: backend, stride, input plane width (square planes). The widths
/// are the paper designs' grids (D1 20, D2 28, D4 32) and 64.
void BM_ConvBackend(benchmark::State& state) {
  const auto backend = static_cast<linalg::KernelBackend>(state.range(0));
  const int stride = static_cast<int>(state.range(1));
  const int hw = static_cast<int>(state.range(2));
  if (!force_backend_or_skip(state, backend)) return;
  const int cout = stride == 1 ? 8 : 16;  // the paper net's layer widths
  util::Rng rng(3);
  nn::Conv2d conv(8, cout, 3, stride, 1, nn::PadMode::kReplicate, rng);
  nn::Tensor x({1, 8, hw, hw});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform());
  }
  nn::NoGradGuard guard;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  for (auto _ : state) {
    const nn::Var y = conv.forward(nn::Var(x));
    benchmark::DoNotOptimize(y.value().data());
  }
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::set_enabled(was_enabled);
  const int ohw = nn::conv_out_size(hw, 3, stride, 1);
  const double flops = 2.0 * ohw * ohw * cout * 8 * 9;
  state.counters["MFLOPS"] = benchmark::Counter(
      flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["fused_calls"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kConvFusedCalls)) /
      static_cast<double>(state.iterations());
  state.counters["bytes_packed"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kKernelPackedBytes)) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flops));
  state.SetLabel(std::string(linalg::backend_name(backend)) + ", 8->" +
                 std::to_string(cout) + " s" + std::to_string(stride) + ", " +
                 std::to_string(hw) + "x" + std::to_string(hw));
  linalg::clear_forced_backend();
}
BENCHMARK(BM_ConvBackend)->ArgsProduct({{0, 1}, {1, 2}, {20, 28, 32, 64}});

void BM_Conv2dBatchThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool::set_global_threads(threads);
  constexpr int kBatch = 8;
  constexpr int kHw = 64;
  util::Rng rng(13);
  nn::Conv2d conv(8, 8, 3, 1, 1, nn::PadMode::kReplicate, rng);
  nn::Tensor x({kBatch, 8, kHw, kHw});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform());
  }
  nn::NoGradGuard guard;
  for (auto _ : state) {
    const nn::Var y = conv.forward(nn::Var(x));
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * 2LL * kHw * kHw * 8 *
                          8 * 9);
  state.SetLabel("batch " + std::to_string(kBatch) + ", " +
                 std::to_string(threads) + " threads");
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_Conv2dBatchThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DatasetGenD2Threads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool::set_global_threads(threads);
  // Design D2 at the small scale; grid and factorization are prepared once
  // (the per-vector transient solves are what the pool parallelizes).
  static const pdn::PowerGrid* grid =
      new pdn::PowerGrid(pdn::design_d2(pdn::Scale::kSmall));
  static const sim::TransientSimulator* simulator =
      new sim::TransientSimulator(*grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 40;
  constexpr int kVectors = 8;
  for (auto _ : state) {
    vectors::TestVectorGenerator gen(*grid, params, 21);
    const core::RawDataset raw =
        core::simulate_dataset(*grid, *simulator, gen, kVectors);
    benchmark::DoNotOptimize(raw.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * kVectors);
  state.SetLabel("D2 small, " + std::to_string(kVectors) + " vectors, " +
                 std::to_string(threads) + " threads");
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_DatasetGenD2Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TemporalCompression(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  util::Rng rng(4);
  std::vector<double> totals(static_cast<std::size_t>(steps));
  for (double& v : totals) v = rng.uniform(1.0, 4.0);
  core::TemporalCompressionOptions opt;
  opt.rate = 0.15;
  for (auto _ : state) {
    const auto result = core::compress_temporal(totals, opt);
    benchmark::DoNotOptimize(result.kept.size());
  }
}
BENCHMARK(BM_TemporalCompression)->Arg(80)->Arg(400)->Arg(2000);

pdn::DesignSpec bench_spec() {
  pdn::DesignSpec s;
  s.name = "bench";
  s.tile_rows = 16;
  s.tile_cols = 16;
  s.nodes_per_tile = 2;
  s.top_stride = 4;
  s.bump_pitch = 2;
  s.num_loads = 128;
  s.unit_current = 2e-3;
  s.seed = 12;
  return s;
}

void BM_SpatialAggregation(benchmark::State& state) {
  const pdn::PowerGrid grid(bench_spec());
  const core::SpatialCompressor sc(grid);
  vectors::VectorGenParams params;
  params.num_steps = 80;
  vectors::TestVectorGenerator gen(grid, params, 5);
  const auto trace = gen.generate();
  for (auto _ : state) {
    const auto maps = sc.current_maps(trace);
    benchmark::DoNotOptimize(maps.size());
  }
}
BENCHMARK(BM_SpatialAggregation);

void BM_TransientSimBatch(benchmark::State& state) {
  // Batched multi-RHS engine trajectory: steps/sec vs batch width on the
  // D3-sized design (the noisiest Table-1 design) with the envelope-Cholesky
  // engine. items_processed counts trace-steps, so items_per_second is the
  // steps/sec figure tracked by BENCH_sim_batch.json; the B=8 : B=1 ratio is
  // the factor-streaming amortization (acceptance: >= 1.5x).
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 40;
  static const pdn::PowerGrid* grid =
      new pdn::PowerGrid(pdn::design_d3(pdn::Scale::kSmall));
  static const sim::TransientSimulator* simulator =
      new sim::TransientSimulator(*grid, {});
  vectors::VectorGenParams params;
  params.num_steps = kSteps;
  vectors::TestVectorGenerator gen(*grid, params, 17);
  std::vector<vectors::CurrentTrace> traces;
  traces.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) traces.push_back(gen.generate());
  // Counters collect while the timed loop runs so the JSON perf trajectory
  // carries the solver work (solves, RHS columns, batch width) per
  // iteration alongside steps/sec.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  for (auto _ : state) {
    const auto results = simulator->simulate_batch(
        {traces.data(), static_cast<std::size_t>(batch)});
    benchmark::DoNotOptimize(results.data());
  }
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::set_enabled(was_enabled);
  const double iters = static_cast<double>(state.iterations());
  state.counters["chol_solves"] = static_cast<double>(obs::counter_reading(
                                      before, after, obs::Counter::kCholSolves)) /
                                  iters;
  state.counters["chol_columns"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kCholSolveColumns)) /
      iters;
  state.counters["chol_batch_width_max"] =
      static_cast<double>(obs::counter_reading(
          before, after, obs::Counter::kCholBatchWidthMax));
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
  state.SetLabel("D3 small (" + std::to_string(grid->num_nodes()) +
                 " nodes), batch " + std::to_string(batch));
}
BENCHMARK(BM_TransientSimBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_TransientVector(benchmark::State& state) {
  const pdn::PowerGrid grid(bench_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 40;
  vectors::TestVectorGenerator gen(grid, params, 6);
  const auto trace = gen.generate();
  for (auto _ : state) {
    const auto result = simulator.simulate(trace);
    benchmark::DoNotOptimize(result.tile_worst_noise.data());
  }
  state.SetLabel(std::to_string(grid.num_nodes()) + " nodes x 40 steps");
}
BENCHMARK(BM_TransientVector);

}  // namespace

BENCHMARK_MAIN();
