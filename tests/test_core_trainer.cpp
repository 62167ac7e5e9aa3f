// Trainer tests: loss decreases, overfitting a single sample works, the
// evaluation helper is consistent, interrupted training resumes to
// bit-identical weights from a checkpoint chunk in a run store, a run over
// other data cannot find that chunk, a rejected checkpoint leaves the model
// and optimizer untouched, and the bits of training and of prediction are
// pinned by digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "store/store.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 6;
  s.tile_cols = 6;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 14;
  s.unit_current = 5e-3;
  s.seed = 41;
  return s;
}

struct Fixture {
  pdn::PowerGrid grid{tiny_spec()};
  sim::TransientSimulator simulator{grid, {}};
  core::RawDataset raw;
  core::CompiledDataset data;

  explicit Fixture(int vectors) {
    vectors::VectorGenParams params;
    params.num_steps = 30;
    vectors::TestVectorGenerator gen(grid, params, 99);
    raw = core::simulate_dataset(grid, simulator, gen, vectors);
    core::TemporalCompressionOptions temporal;
    temporal.rate = 0.25;
    data = core::compile_dataset(raw, temporal, {});
  }

  core::ModelConfig config() const {
    core::ModelConfig c;
    c.distance_channels = static_cast<int>(grid.bumps().size());
    c.tile_rows = 6;
    c.tile_cols = 6;
    c.current_scale = data.current_scale;
    c.noise_scale = data.noise_scale;
    return c;
  }
};

TEST(Trainer, LossDecreasesOverEpochs) {
  Fixture f(10);
  core::WorstCaseNoiseNet model(f.config());
  core::TrainOptions opt;
  opt.epochs = 8;
  opt.lr = 1e-3f;  // tiny problem: faster than the paper's 1e-4
  const auto report = core::train_model(model, f.data, opt);
  ASSERT_EQ(report.train_loss.size(), 8u);
  EXPECT_LT(report.train_loss.back(), 0.7 * report.train_loss.front());
  EXPECT_GT(report.seconds, 0.0);
}

TEST(Trainer, CanOverfitSingleSample) {
  Fixture f(4);
  // Restrict training to one sample; the network must drive its loss toward
  // zero (capacity sanity check).
  core::CompiledDataset single = f.data;
  single.split.train = {0};
  single.split.val = {0};
  core::WorstCaseNoiseNet model(f.config());
  core::TrainOptions opt;
  opt.epochs = 150;
  opt.lr = 3e-3f;
  const auto report = core::train_model(model, single, opt);
  EXPECT_LT(report.train_loss.back(), 0.1 * report.train_loss.front());
}

TEST(Trainer, EvaluateLossMatchesValCurve) {
  Fixture f(8);
  core::WorstCaseNoiseNet model(f.config());
  core::TrainOptions opt;
  opt.epochs = 2;
  const auto report = core::train_model(model, f.data, opt);
  const double manual = core::evaluate_loss(model, f.data, f.data.split.val);
  EXPECT_NEAR(manual, report.val_loss.back(), 1e-6);
}

TEST(Trainer, RejectsEmptyTrainSet) {
  Fixture f(4);
  core::CompiledDataset empty = f.data;
  empty.split.train.clear();
  core::WorstCaseNoiseNet model(f.config());
  EXPECT_THROW(core::train_model(model, empty, {}), util::CheckError);
}

// Directory of an empty run store for one test's checkpoints.
std::string fresh_store_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pdnn_checkpoint_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_weights_bit_equal(core::WorstCaseNoiseNet& a,
                              core::WorstCaseNoiseNet& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const nn::Tensor& ta = pa[i]->var.value();
    const nn::Tensor& tb = pb[i]->var.value();
    ASSERT_EQ(ta.numel(), tb.numel()) << pa[i]->name;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<std::size_t>(ta.numel()) *
                              sizeof(float)),
              0)
        << pa[i]->name;
  }
}

TEST(Trainer, ResumeReachesBitIdenticalWeights) {
  Fixture f(8);
  core::TrainOptions base;
  base.epochs = 6;
  base.lr = 1e-3f;
  base.lr_decay = 0.9f;  // exercise the decay-compose-on-resume path

  // Run A: uninterrupted.
  core::WorstCaseNoiseNet straight(f.config());
  const auto full = core::train_model(straight, f.data, base);

  // Run B: stop after 3 epochs (checkpointing), then resume a *fresh* model
  // to the full budget.
  store::Store ckpts(fresh_store_dir("resume"));
  core::TrainOptions first = base;
  first.epochs = 3;
  first.checkpoint_store = &ckpts;
  first.checkpoint_every = 2;  // epochs 2 and 3 (final always checkpoints)
  core::WorstCaseNoiseNet interrupted(f.config());
  core::train_model(interrupted, f.data, first);
  ASSERT_TRUE(std::filesystem::exists(
      ckpts.chunk_path(core::checkpoint_key(f.data))));

  core::TrainOptions second = base;
  second.checkpoint_store = &ckpts;
  second.checkpoint_every = 2;
  second.resume = true;
  core::WorstCaseNoiseNet resumed(f.config());
  const auto rest = core::train_model(resumed, f.data, second);

  expect_weights_bit_equal(straight, resumed);
  // The resumed report covers all six epochs, spliced from the checkpoint.
  ASSERT_EQ(rest.train_loss.size(), full.train_loss.size());
  for (std::size_t e = 0; e < full.train_loss.size(); ++e) {
    EXPECT_EQ(rest.train_loss[e], full.train_loss[e]) << "epoch " << e;
    EXPECT_EQ(rest.val_loss[e], full.val_loss[e]) << "epoch " << e;
  }
}

TEST(Trainer, ResumeAtFullBudgetIsANoOpForWeights) {
  Fixture f(6);
  core::TrainOptions opt;
  opt.epochs = 4;
  opt.lr = 1e-3f;
  store::Store ckpts(fresh_store_dir("noop"));
  opt.checkpoint_store = &ckpts;
  opt.checkpoint_every = 4;
  core::WorstCaseNoiseNet model(f.config());
  core::train_model(model, f.data, opt);

  // Resuming with the same budget finds next_epoch == epochs: no further
  // steps, weights restored exactly as checkpointed.
  opt.resume = true;
  core::WorstCaseNoiseNet reloaded(f.config());
  const auto report = core::train_model(reloaded, f.data, opt);
  expect_weights_bit_equal(model, reloaded);
  EXPECT_EQ(report.train_loss.size(), 4u);
}

TEST(Trainer, CorruptCheckpointFallsBackToFreshStart) {
  Fixture f(6);
  store::Store ckpts(fresh_store_dir("corrupt"));
  core::TrainOptions opt;
  opt.epochs = 3;
  opt.lr = 1e-3f;
  opt.checkpoint_store = &ckpts;
  opt.checkpoint_every = 1;
  core::WorstCaseNoiseNet model(f.config());
  core::train_model(model, f.data, opt);

  {
    // Flip a payload byte, past the chunk's 32-byte header.
    std::fstream fs(ckpts.chunk_path(core::checkpoint_key(f.data)),
                    std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(fs.good());
    fs.seekg(36);
    const int byte = fs.get();
    fs.seekp(36);
    fs.put(static_cast<char>(byte ^ 0xFF));
  }

  // The damaged chunk is evicted (named log, no throw) and training runs
  // from scratch — identical to a never-checkpointed run.
  opt.resume = true;
  core::WorstCaseNoiseNet recovered(f.config());
  const auto report = core::train_model(recovered, f.data, opt);
  EXPECT_EQ(report.train_loss.size(), 3u);
  EXPECT_EQ(ckpts.stats().evicts, 1);

  core::TrainOptions plain;
  plain.epochs = 3;
  plain.lr = 1e-3f;
  core::WorstCaseNoiseNet fresh(f.config());
  core::train_model(fresh, f.data, plain);
  expect_weights_bit_equal(recovered, fresh);
}

// A checkpoint payload that verified in the store but fails a later field
// must leave the model and the optimizer exactly as they were, so training
// starts fresh. Models built from one config start bit-identical, so each
// rejected decode is compared against a twin that never saw the payload.
TEST(Trainer, RejectedCheckpointLeavesModelUntouched) {
  Fixture f(4);
  core::ModelConfig wide = f.config();
  wide.c3 = 16;
  wide.init_seed = 5;
  core::WorstCaseNoiseNet saved(wide);
  nn::Adam saved_optimizer(saved.parameters());
  saved_optimizer.set_steps_taken(3);
  for (nn::Tensor* t : saved_optimizer.state_tensors()) t->fill(0.5f);
  core::TrainCheckpoint written;
  written.next_epoch = 1;
  written.order = {0};
  const std::string payload =
      core::encode_train_checkpoint(saved, saved_optimizer, written);
  const std::uint64_t key = core::checkpoint_key(f.data);

  // The distance and fusion subnets match and come first in the payload;
  // the prediction subnet (c3 = 8 against 16) does not.
  core::ModelConfig narrow = f.config();
  narrow.c3 = 8;
  core::WorstCaseNoiseNet model(narrow);
  core::WorstCaseNoiseNet pristine(narrow);
  nn::Adam optimizer(model.parameters());
  core::TrainCheckpoint ck;
  EXPECT_FALSE(core::decode_train_checkpoint(payload, key, {0}, model,
                                             optimizer, &ck));
  expect_weights_bit_equal(model, pristine);
  EXPECT_EQ(optimizer.steps_taken(), 0);
  EXPECT_TRUE(ck.order.empty());

  // Every weight matches, but the optimizer covers one parameter fewer, so
  // the moment count fails after the whole weight block has verified.
  core::ModelConfig other_seed = wide;
  other_seed.init_seed = 6;
  core::WorstCaseNoiseNet twin(other_seed);
  core::WorstCaseNoiseNet twin_pristine(other_seed);
  std::vector<nn::Parameter*> all_but_last = twin.parameters();
  all_but_last.pop_back();
  nn::Adam partial(all_but_last);
  EXPECT_FALSE(
      core::decode_train_checkpoint(payload, key, {0}, twin, partial, &ck));
  expect_weights_bit_equal(twin, twin_pristine);
  EXPECT_EQ(partial.steps_taken(), 0);
  for (const nn::Tensor* t : partial.state_tensors()) {
    for (std::int64_t i = 0; i < t->numel(); ++i) {
      ASSERT_EQ(t->data()[i], 0.0f);
    }
  }
}

// A count that the chunk checksum covers but the payload cannot hold must
// end in a rejection, not in an allocation of the declared size.
TEST(Trainer, CheckpointCountBeyondFileIsRejected) {
  core::ModelConfig config;
  config.distance_channels = 2;
  config.tile_rows = 4;
  config.tile_cols = 4;
  core::WorstCaseNoiseNet model(config);
  nn::Adam optimizer(model.parameters());
  core::TrainCheckpoint written;
  written.order = {1, 0};
  std::string payload =
      core::encode_train_checkpoint(model, optimizer, written);

  // order_count follows next_epoch, lr, the RNG state, its cached flag and
  // cached normal (25 bytes).
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(&payload[25], &huge, sizeof(huge));

  core::TrainCheckpoint ck;
  EXPECT_FALSE(core::decode_train_checkpoint(payload, 0x5eed, {0, 1}, model,
                                             optimizer, &ck));
}

// A checkpoint's training order indexes the split it was written for. The
// key covers the split, so a run over another split finds no checkpoint and
// trains fresh: the weights equal those of a run that never saw one.
void expect_resume_onto_other_split_trains_fresh(
    const Fixture& f, const std::vector<int>& checkpoint_split,
    const std::string& name) {
  core::CompiledDataset other = f.data;
  other.split.train = checkpoint_split;
  EXPECT_NE(core::checkpoint_key(other), core::checkpoint_key(f.data));
  store::Store ckpts(fresh_store_dir(name));
  core::TrainOptions opt;
  opt.epochs = 2;
  opt.lr = 1e-3f;
  opt.checkpoint_store = &ckpts;
  opt.checkpoint_every = 1;
  core::WorstCaseNoiseNet first(f.config());
  core::train_model(first, other, opt);

  opt.epochs = 3;
  opt.resume = true;
  core::WorstCaseNoiseNet resumed(f.config());
  const core::TrainReport report = core::train_model(resumed, f.data, opt);
  EXPECT_EQ(report.train_loss.size(), 3u);

  core::TrainOptions plain;
  plain.epochs = 3;
  plain.lr = 1e-3f;
  core::WorstCaseNoiseNet fresh(f.config());
  core::train_model(fresh, f.data, plain);
  expect_weights_bit_equal(resumed, fresh);
}

// The decoder's own guard: a payload whose order is not a permutation of the
// split it is decoded against is rejected before the model or the optimizer
// sees it, and the same payload decodes against its own split.
void expect_decode_onto_other_split_rejected(
    const Fixture& f, const std::vector<int>& checkpoint_split) {
  core::ModelConfig saved_config = f.config();
  saved_config.init_seed = 9;
  core::WorstCaseNoiseNet saved(saved_config);
  nn::Adam saved_optimizer(saved.parameters());
  saved_optimizer.set_steps_taken(2);
  core::TrainCheckpoint written;
  written.next_epoch = 2;
  written.order = checkpoint_split;
  const std::string payload =
      core::encode_train_checkpoint(saved, saved_optimizer, written);
  const std::uint64_t key = core::checkpoint_key(f.data);

  core::WorstCaseNoiseNet model(f.config());
  core::WorstCaseNoiseNet pristine(f.config());
  nn::Adam optimizer(model.parameters());
  core::TrainCheckpoint ck;
  EXPECT_FALSE(core::decode_train_checkpoint(payload, key, f.data.split.train,
                                             model, optimizer, &ck));
  expect_weights_bit_equal(model, pristine);
  EXPECT_EQ(optimizer.steps_taken(), 0);
  EXPECT_TRUE(ck.order.empty());

  EXPECT_TRUE(core::decode_train_checkpoint(payload, key, checkpoint_split,
                                            model, optimizer, &ck));
  expect_weights_bit_equal(model, saved);
  EXPECT_EQ(optimizer.steps_taken(), 2);
}

std::vector<int> shorter_split(const Fixture& f) {
  std::vector<int> shorter = f.data.split.train;
  EXPECT_GT(shorter.size(), 1u);
  shorter.pop_back();
  return shorter;
}

// Same length as the training split, but one index is a validation sample.
std::vector<int> split_with_foreign_index(const Fixture& f) {
  EXPECT_FALSE(f.data.split.val.empty());
  std::vector<int> foreign = f.data.split.train;
  foreign.back() = f.data.split.val.front();
  return foreign;
}

TEST(Trainer, ResumeOntoSplitOfOtherLengthTrainsFresh) {
  Fixture f(8);
  expect_resume_onto_other_split_trains_fresh(f, shorter_split(f),
                                              "other_length");
}

TEST(Trainer, DecodeOntoSplitOfOtherLengthIsRejected) {
  Fixture f(8);
  expect_decode_onto_other_split_rejected(f, shorter_split(f));
}

TEST(Trainer, ResumeOntoSplitWithForeignIndexTrainsFresh) {
  Fixture f(8);
  expect_resume_onto_other_split_trains_fresh(f, split_with_foreign_index(f),
                                              "foreign_index");
}

TEST(Trainer, DecodeOntoSplitWithForeignIndexIsRejected) {
  Fixture f(8);
  expect_decode_onto_other_split_rejected(f, split_with_foreign_index(f));
}

// A store without a checkpoint for this data is a plain miss: a resume
// trains fresh.
TEST(Trainer, LoadCheckpointRejectsMissingFile) {
  Fixture f(4);
  store::Store ckpts(fresh_store_dir("absent"));
  core::TrainOptions opt;
  opt.epochs = 2;
  opt.lr = 1e-3f;
  opt.checkpoint_store = &ckpts;
  opt.resume = true;
  core::WorstCaseNoiseNet resumed(f.config());
  core::train_model(resumed, f.data, opt);
  EXPECT_EQ(ckpts.stats().misses, 1);
  EXPECT_EQ(ckpts.stats().evicts, 0);

  core::TrainOptions plain;
  plain.epochs = 2;
  plain.lr = 1e-3f;
  core::WorstCaseNoiseNet fresh(f.config());
  core::train_model(fresh, f.data, plain);
  expect_weights_bit_equal(resumed, fresh);
}

// The key follows what the run trains on — the distance tensor, each
// sample's currents and target, the train and val lists — and nothing else:
// the test list is not trained on. Tensor copies share storage, so each
// edited tensor is a clone.
TEST(Trainer, CheckpointKeyTracksWhatTheRunTrainsOn) {
  Fixture f(6);
  const std::uint64_t base = core::checkpoint_key(f.data);
  EXPECT_EQ(core::checkpoint_key(f.data), base);

  const auto bumped = [](const nn::Tensor& t) {
    nn::Tensor out = t.clone();
    out.data()[0] += 1.0f;
    return out;
  };
  core::CompiledDataset d = f.data;
  d.distance = bumped(f.data.distance);
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  d.samples.back().currents = bumped(f.data.samples.back().currents);
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  d.samples.front().target = bumped(f.data.samples.front().target);
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  std::swap(d.split.train.front(), d.split.train.back());
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  d.split.val.push_back(0);
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  d.samples.pop_back();
  EXPECT_NE(core::checkpoint_key(d), base);
  d = f.data;
  d.split.test.clear();
  EXPECT_EQ(core::checkpoint_key(d), base);
}

// Fills `t` with uniform() draws centred on zero. uniform() scales a 53-bit
// integer by 2^-53, so the draws need no libm and are the same everywhere,
// while their products are inexact: a float multiply and add contracted
// into one FMA round differently from the two separate operations, and the
// digests below see it. (Values such as k * 0.125 multiply exactly and
// would hide it.)
void fill_uniform(nn::Tensor& t, util::Rng& rng) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform() - 0.5);
  }
}

core::ModelConfig pinned_config(int distance_channels, int rows, int cols) {
  core::ModelConfig c;
  c.distance_channels = distance_channels;
  c.tile_rows = rows;
  c.tile_cols = cols;
  c.c1 = 2;
  c.c2 = 2;
  c.c3 = 4;
  c.current_scale = 0.75f;
  c.noise_scale = 1.5f;
  return c;
}

void fill_weights(core::WorstCaseNoiseNet& model, util::Rng& rng) {
  for (nn::Parameter* p : model.parameters()) {
    fill_uniform(p->var.mutable_value(), rng);
  }
}

std::uint64_t weights_digest(core::WorstCaseNoiseNet& model) {
  util::Fnv1a64 h;
  for (nn::Parameter* p : model.parameters()) {
    const nn::Tensor& t = p->var.value();
    h.add_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  return h.digest();
}

// Training bits must not depend on the build type, the compiler or -march
// (the tree builds with -ffp-contract=off). Two epochs at a constant rate
// run the forward and backward passes, the temporal statistics and Adam on
// a dataset drawn from uniform(); the digest covers every parameter.
TEST(Trainer, TrainBitsArePinned) {
  util::Rng rng(2024);
  constexpr int kBumps = 3;
  constexpr int kTiles = 4;
  core::CompiledDataset data;
  data.distance = nn::Tensor({1, kBumps, kTiles, kTiles});
  fill_uniform(data.distance, rng);
  for (int i = 0; i < 4; ++i) {
    core::CompiledSample s;
    s.currents = nn::Tensor({3, 1, kTiles, kTiles});
    s.target = nn::Tensor({1, 1, kTiles, kTiles});
    fill_uniform(s.currents, rng);
    fill_uniform(s.target, rng);
    data.samples.push_back(std::move(s));
  }
  data.split.train = {0, 1, 2};
  data.split.val = {3};

  core::WorstCaseNoiseNet model(pinned_config(kBumps, kTiles, kTiles));
  fill_weights(model, rng);
  core::TrainOptions opt;
  opt.epochs = 2;
  opt.lr = 1e-2f;
  opt.lr_decay = 1.0f;
  core::train_model(model, data, opt);
  EXPECT_EQ(weights_digest(model), 0x35381e38f70286e7ull);
}

// Prediction bits are pinned the same way: spatial aggregation, Algorithm 1,
// the distance feature and one CNN pass over a trace drawn from uniform().
// A contracted float multiply and add moves the digest; a contraction in the
// double-precision sums of Algorithm 1 and the temporal statistics reaches
// the map only through a cast to float, and so rarely shows.
TEST(Pipeline, PredictBitsArePinned) {
  const pdn::DesignSpec spec = tiny_spec();
  const pdn::PowerGrid grid(spec);
  util::Rng rng(2025);
  core::WorstCaseNoiseNet model(pinned_config(
      static_cast<int>(grid.bumps().size()), spec.tile_rows, spec.tile_cols));
  fill_weights(model, rng);
  vectors::CurrentTrace trace(24, static_cast<int>(grid.load_nodes().size()),
                              1e-12);
  for (int k = 0; k < trace.num_steps(); ++k) {
    for (int j = 0; j < trace.num_loads(); ++j) {
      trace.at(k, j) = static_cast<float>(rng.uniform());
    }
  }
  core::PipelineOptions popt;
  popt.temporal.rate = 0.25;
  const core::WorstCasePipeline pipeline(grid, model, popt);
  const util::MapF map = pipeline.predict(trace);
  EXPECT_EQ(util::fnv1a64(map.data(), map.size() * sizeof(float)),
            0x4879f465f91b8d42ull);
}

TEST(Pipeline, PredictionMatchesManualForward) {
  Fixture f(4);
  core::WorstCaseNoiseNet model(f.config());
  core::PipelineOptions popt;
  popt.temporal.rate = 0.25;
  core::WorstCasePipeline pipeline(f.grid, model, popt);

  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(f.grid, params, 123);
  const auto trace = gen.generate();

  core::PredictionTiming timing;
  const util::MapF pred = pipeline.predict(trace, &timing);
  EXPECT_EQ(pred.rows(), 6);
  EXPECT_EQ(pred.cols(), 6);
  EXPECT_GT(timing.total_seconds, 0.0);
  EXPECT_EQ(timing.kept_steps, static_cast<int>(std::lround(0.25 * 30)));

  // Manual reproduction of the pipeline's steps must agree exactly.
  const core::SpatialCompressor sc(f.grid);
  const auto maps = sc.current_maps(trace);
  const auto tc = core::compress_temporal(core::total_current_sequence(maps),
                                          popt.temporal);
  const nn::Tensor currents =
      core::stack_current_maps(maps, tc.kept, model.config().current_scale);
  nn::NoGradGuard guard;
  const nn::Var out = model.forward(nn::Var(core::distance_feature(f.grid)),
                                    nn::Var(currents));
  const util::MapF manual =
      core::tensor_to_map(out.value(), model.config().noise_scale);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      ASSERT_FLOAT_EQ(pred(r, c), manual(r, c));
    }
  }
}

TEST(Pipeline, InferenceIsFasterThanGoldenSim) {
  Fixture f(4);
  core::WorstCaseNoiseNet model(f.config());
  core::PipelineOptions popt;
  popt.temporal.rate = 0.25;
  core::WorstCasePipeline pipeline(f.grid, model, popt);
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(f.grid, params, 321);
  const auto trace = gen.generate();

  // Each side is the fastest of several repetitions after a warm-up, so a
  // descheduling on a loaded host cannot decide the comparison.
  core::PredictionTiming timing;
  pipeline.predict(trace, &timing);  // warm-up
  f.simulator.simulate(trace);
  double infer_seconds = std::numeric_limits<double>::infinity();
  double golden_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    pipeline.predict(trace, &timing);
    infer_seconds = std::min(infer_seconds, timing.total_seconds);
    golden_seconds =
        std::min(golden_seconds, f.simulator.simulate(trace).solve_seconds);
  }
  EXPECT_LT(infer_seconds, golden_seconds * 5.0)
      << "inference should be at least comparable on a tiny design";
}

}  // namespace
}  // namespace pdnn
