// Dataset pipeline tests: golden simulation harvesting, signatures, the
// training-set expansion split, compilation to tensors, and the persistent
// golden-simulation cache (warm runs must be bit-identical to cold ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/dataset.hpp"
#include "store/store.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

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

core::RawDataset build_raw(int vectors) {
  static const pdn::PowerGrid grid(tiny_spec());
  static sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 55);
  return core::simulate_dataset(grid, simulator, gen, vectors);
}

TEST(Dataset, SimulateProducesConsistentSamples) {
  const auto raw = build_raw(6);
  ASSERT_EQ(raw.samples.size(), 6u);
  EXPECT_GT(raw.total_sim_seconds, 0.0);
  EXPECT_GT(raw.current_scale, 0.0f);
  for (const auto& s : raw.samples) {
    EXPECT_EQ(s.current_maps.size(), 30u);
    EXPECT_EQ(s.truth.rows(), 5);
    EXPECT_EQ(s.truth.cols(), 5);
    EXPECT_GT(s.truth.max_value(), 0.0f);
    EXPECT_GE(s.sim_seconds, 0.0);
  }
}

TEST(Dataset, CurrentScaleIsTheGlobalMaxTileCurrent) {
  const auto raw = build_raw(4);
  float global_max = 0.0f;
  for (const auto& s : raw.samples) {
    for (const util::MapF& m : s.current_maps) {
      global_max = std::max(global_max, m.max_value());
    }
  }
  ASSERT_GT(global_max, 0.0f);
  EXPECT_EQ(raw.current_scale, global_max);
}

TEST(Dataset, ProgressCallbackFires) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 20;
  vectors::TestVectorGenerator gen(grid, params, 56);
  int calls = 0;
  core::simulate_dataset(grid, simulator, gen, 3,
                         [&](int done, int total) {
                           ++calls;
                           EXPECT_LE(done, total);
                         });
  EXPECT_EQ(calls, 3);
}

TEST(Dataset, SignatureShapeAndContent) {
  const auto raw = build_raw(2);
  const auto sig = core::sample_signature(raw.samples[0]);
  EXPECT_EQ(sig.size(), 2u * 25u);  // per-tile max + per-tile mu+3sigma
  // mu+3sigma >= temporal max is not guaranteed, but both must be >= 0 and
  // the max block must dominate per-tile mean.
  for (float v : sig) EXPECT_GE(v, 0.0f);
}

std::vector<std::vector<float>> synthetic_signatures(int n, int dim,
                                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> sigs;
  for (int i = 0; i < n; ++i) {
    std::vector<float> s(static_cast<std::size_t>(dim));
    for (float& v : s) v = static_cast<float>(rng.normal());
    sigs.push_back(std::move(s));
  }
  return sigs;
}

TEST(Split, ExpansionHitsTargetFraction) {
  const auto sigs = synthetic_signatures(50, 10, 1);
  core::SplitOptions opt;
  opt.train_fraction = 0.6;
  const auto split = core::expansion_split(sigs, opt);
  EXPECT_NEAR(static_cast<double>(split.train.size()) / 50.0, 0.6, 0.1);
}

TEST(Split, PartitionIsDisjointAndComplete) {
  const auto sigs = synthetic_signatures(40, 8, 2);
  core::SplitOptions opt;
  const auto split = core::expansion_split(sigs, opt);
  std::set<int> seen;
  for (const auto* part : {&split.train, &split.val, &split.test}) {
    for (int i : *part) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 40);
    }
  }
  EXPECT_EQ(seen.size(), 40u);
}

TEST(Split, ValTestRatioIsThreeToSeven) {
  const auto sigs = synthetic_signatures(100, 6, 3);
  core::SplitOptions opt;
  const auto split = core::expansion_split(sigs, opt);
  const double rest =
      static_cast<double>(split.val.size() + split.test.size());
  EXPECT_NEAR(static_cast<double>(split.val.size()) / rest, 0.3, 0.12);
}

TEST(Split, ExpansionAdmitsDiverseSamplesFirst) {
  // Two tight clusters of near-duplicates: expansion should admit roughly
  // one representative per cluster before (threshold-limited) duplicates,
  // whereas the requested fraction forces more. Key property: the train set
  // contains members of both clusters.
  std::vector<std::vector<float>> sigs;
  util::Rng rng(4);
  for (int cluster = 0; cluster < 2; ++cluster) {
    for (int i = 0; i < 10; ++i) {
      std::vector<float> s(4, cluster ? 10.0f : -10.0f);
      for (float& v : s) v += static_cast<float>(rng.normal(0.0, 0.01));
      sigs.push_back(std::move(s));
    }
  }
  core::SplitOptions opt;
  opt.train_fraction = 0.5;
  const auto split = core::expansion_split(sigs, opt);
  bool has_low = false, has_high = false;
  for (int i : split.train) {
    (i < 10 ? has_low : has_high) = true;
  }
  EXPECT_TRUE(has_low);
  EXPECT_TRUE(has_high);
}

TEST(Split, RandomStrategyExactCount) {
  const auto sigs = synthetic_signatures(30, 5, 5);
  core::SplitOptions opt;
  opt.strategy = core::SplitStrategy::kRandom;
  opt.train_fraction = 0.6;
  const auto split = core::expansion_split(sigs, opt);
  EXPECT_EQ(split.train.size(), 18u);
}

TEST(Split, RejectsTooFewSamples) {
  const auto sigs = synthetic_signatures(2, 4, 6);
  EXPECT_THROW(core::expansion_split(sigs, {}), util::CheckError);
}

struct PoolGuard {
  explicit PoolGuard(int threads) {
    util::ThreadPool::set_global_threads(threads);
  }
  ~PoolGuard() { util::ThreadPool::set_global_threads(0); }
};

std::string fresh_store_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pdnn_dataset_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool maps_bit_equal(const util::MapF& a, const util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.storage().size() * sizeof(float)) == 0;
}

// Byte-level dataset equality — float compares would hide sign/NaN drift.
// `compare_timings` is off when the two runs measured wall clocks
// independently: sim_seconds is a measurement, so it is only reproducible
// when one side replayed the other's persisted samples.
void expect_datasets_bit_equal(const core::RawDataset& a,
                               const core::RawDataset& b,
                               bool compare_timings = true) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const core::RawSample& sa = a.samples[i];
    const core::RawSample& sb = b.samples[i];
    ASSERT_EQ(sa.current_maps.size(), sb.current_maps.size()) << i;
    for (std::size_t m = 0; m < sa.current_maps.size(); ++m) {
      EXPECT_TRUE(maps_bit_equal(sa.current_maps[m], sb.current_maps[m]))
          << "sample " << i << " map " << m;
    }
    EXPECT_TRUE(maps_bit_equal(sa.truth, sb.truth)) << "sample " << i;
    if (compare_timings) {
      EXPECT_EQ(
          std::memcmp(&sa.sim_seconds, &sb.sim_seconds, sizeof(double)), 0)
          << "sample " << i;
    }
  }
  if (compare_timings) {
    EXPECT_EQ(std::memcmp(&a.total_sim_seconds, &b.total_sim_seconds,
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(std::memcmp(&a.current_scale, &b.current_scale, sizeof(float)),
            0);
}

core::RawDataset run_with_store(int vectors, int threads, int sim_batch,
                                store::Store* store) {
  PoolGuard guard(threads);
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 55);
  return core::simulate_dataset(grid, simulator, gen, vectors, {}, sim_batch,
                                store);
}

TEST(Dataset, WarmStoreBitIdenticalAcrossThreadsAndBatch) {
  // The tentpole identity: a cold 1-thread run populates the store; a warm
  // 8-thread run at a different --sim-batch replays it byte for byte —
  // including per-vector sim_seconds and their index-order total, which
  // are wall-clock measurements and therefore only reproducible because
  // every vector hits (satellite: deterministic total_sim_seconds).
  store::Store cache(fresh_store_dir("warm"));
  const core::RawDataset cold = run_with_store(7, 1, 2, &cache);
  EXPECT_EQ(cache.stats().writes, 7);
  EXPECT_EQ(cache.stats().misses, 7);  // every cold lookup missed

  const core::RawDataset warm = run_with_store(7, 8, 5, &cache);
  EXPECT_EQ(cache.stats().hits, 7);
  EXPECT_EQ(cache.stats().misses, 7);  // no new misses on the warm pass
  expect_datasets_bit_equal(cold, warm);
}

TEST(Dataset, WarmStoreMatchesStorelessRun) {
  // Caching must be invisible: with or without a store, same bytes. The
  // plain and cold runs measure wall clocks independently, so timings are
  // excluded there; cold vs warm replays and must match fully.
  store::Store cache(fresh_store_dir("invisible"));
  const core::RawDataset plain = run_with_store(5, 2, 3, nullptr);
  const core::RawDataset cold = run_with_store(5, 2, 3, &cache);
  const core::RawDataset warm = run_with_store(5, 2, 3, &cache);
  expect_datasets_bit_equal(plain, cold, /*compare_timings=*/false);
  expect_datasets_bit_equal(cold, warm);
}

TEST(Dataset, PartiallyWarmStoreFillsOnlyMisses) {
  // Populate the first 4 vectors, then ask for 7: the 4 replay, the 3 new
  // ones simulate (in a non-aligned miss block) and are written back.
  store::Store cache(fresh_store_dir("partial"));
  run_with_store(4, 1, 2, &cache);
  EXPECT_EQ(cache.stats().writes, 4);

  const core::RawDataset mixed = run_with_store(7, 4, 2, &cache);
  EXPECT_EQ(cache.stats().hits, 4);
  EXPECT_EQ(cache.stats().misses, 4 + 3);  // 4 cold + 3 new vectors
  EXPECT_EQ(cache.stats().writes, 7);

  const core::RawDataset plain = run_with_store(7, 4, 2, nullptr);
  expect_datasets_bit_equal(plain, mixed, /*compare_timings=*/false);

  // Now fully warm: a replay of `mixed` including its recorded timings.
  const core::RawDataset warm = run_with_store(7, 2, 3, &cache);
  EXPECT_EQ(cache.stats().hits, 4 + 7);
  expect_datasets_bit_equal(mixed, warm);
}

TEST(Dataset, CorruptChunkDegradesToRecomputedMiss) {
  store::Store cache(fresh_store_dir("corrupt"));
  const core::RawDataset cold = run_with_store(5, 2, 2, &cache);

  // Tamper with the third vector's chunk: flip one payload byte.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator probe(grid, params, 55);
  const std::uint64_t key = core::dataset_cache_key(
      grid.spec(), simulator.options(), probe.params(), probe.seed(), 2);
  ASSERT_TRUE(std::filesystem::exists(cache.chunk_path(key)));
  {
    std::fstream f(cache.chunk_path(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(48);
    const int byte = f.get();
    f.seekp(48);
    f.put(static_cast<char>(byte ^ 0xFF));  // guaranteed different
  }

  const core::RawDataset warm = run_with_store(5, 2, 2, &cache);
  EXPECT_EQ(cache.stats().evicts, 1);
  EXPECT_EQ(cache.stats().misses, 5 + 1);  // 5 cold + the evicted chunk
  EXPECT_EQ(cache.stats().hits, 4);
  // The recomputed vector's bytes match the cold run exactly (its timing is
  // a fresh measurement, so timings are excluded).
  expect_datasets_bit_equal(cold, warm, /*compare_timings=*/false);
  // The chunk was persisted again.
  ASSERT_TRUE(std::filesystem::exists(cache.chunk_path(key)));
}

TEST(Dataset, CacheKeyTracksEveryPhysicalInput) {
  const pdn::DesignSpec spec = tiny_spec();
  const sim::TransientOptions sim_options;
  vectors::VectorGenParams params;
  params.num_steps = 30;

  const std::uint64_t base =
      core::dataset_cache_key(spec, sim_options, params, 55, 0);
  EXPECT_EQ(core::dataset_cache_key(spec, sim_options, params, 55, 0), base);

  EXPECT_NE(core::dataset_cache_key(spec, sim_options, params, 55, 1), base);
  EXPECT_NE(core::dataset_cache_key(spec, sim_options, params, 56, 0), base);

  pdn::DesignSpec other = spec;
  other.r_via *= 1.5;
  EXPECT_NE(core::dataset_cache_key(other, sim_options, params, 55, 0), base);

  sim::TransientOptions finer = sim_options;
  finer.dt *= 0.5;
  EXPECT_NE(core::dataset_cache_key(spec, finer, params, 55, 0), base);

  vectors::VectorGenParams longer = params;
  longer.num_steps = 60;
  EXPECT_NE(core::dataset_cache_key(spec, sim_options, longer, 55, 0), base);
}

TEST(Dataset, CacheKeyIsPinned) {
  // Existing stores stay valid only while the key of a fixed input never
  // changes. A change to the hashed fields, their order or the golden
  // engine's bits must bump the payload tag, and then this literal, on
  // purpose.
  vectors::VectorGenParams params;
  params.num_steps = 30;
  EXPECT_EQ(core::dataset_cache_key(tiny_spec(), sim::TransientOptions{},
                                    params, 55, 3),
            0x0013ab0ec6f81f14ull);
}

TEST(Dataset, RawSampleCodecRoundTripsExactly) {
  const core::RawDataset raw = build_raw(2);
  const std::string payload = core::encode_raw_sample(raw.samples[1]);
  core::RawSample decoded;
  ASSERT_TRUE(core::decode_raw_sample(payload, &decoded));
  ASSERT_EQ(decoded.current_maps.size(), raw.samples[1].current_maps.size());
  for (std::size_t m = 0; m < decoded.current_maps.size(); ++m) {
    EXPECT_TRUE(
        maps_bit_equal(decoded.current_maps[m],
                       raw.samples[1].current_maps[m]));
  }
  EXPECT_TRUE(maps_bit_equal(decoded.truth, raw.samples[1].truth));
  EXPECT_EQ(std::memcmp(&decoded.sim_seconds, &raw.samples[1].sim_seconds,
                        sizeof(double)),
            0);
}

TEST(Dataset, RawSampleDecodeRejectsMalformedPayloads) {
  const core::RawDataset raw = build_raw(1);
  const std::string payload = core::encode_raw_sample(raw.samples[0]);
  core::RawSample sink;
  EXPECT_FALSE(core::decode_raw_sample("", &sink));
  EXPECT_FALSE(core::decode_raw_sample(payload.substr(0, 10), &sink));
  EXPECT_FALSE(
      core::decode_raw_sample(payload.substr(0, payload.size() - 1), &sink));
  EXPECT_FALSE(core::decode_raw_sample(payload + "x", &sink));
}

TEST(Dataset, CompileProducesNetworkReadyTensors) {
  const auto raw = build_raw(8);
  core::TemporalCompressionOptions temporal;
  temporal.rate = 0.2;
  const auto compiled = core::compile_dataset(raw, temporal, {});
  ASSERT_EQ(compiled.samples.size(), 8u);
  EXPECT_FLOAT_EQ(compiled.noise_scale, raw.vdd);
  const int expected_t = static_cast<int>(std::lround(0.2 * 30));
  for (const auto& s : compiled.samples) {
    EXPECT_EQ(s.currents.n(), expected_t);
    EXPECT_EQ(s.currents.c(), 1);
    EXPECT_EQ(s.currents.h(), 5);
    EXPECT_EQ(s.target.n(), 1);
    // Normalized currents bounded by 1 (scale is the global max).
    for (std::int64_t i = 0; i < s.currents.numel(); ++i) {
      ASSERT_LE(s.currents.data()[i], 1.0f + 1e-6f);
      ASSERT_GE(s.currents.data()[i], 0.0f);
    }
  }
  // Split covers all samples.
  EXPECT_EQ(compiled.split.train.size() + compiled.split.val.size() +
                compiled.split.test.size(),
            8u);
}

}  // namespace
}  // namespace pdnn
