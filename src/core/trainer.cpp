#include "core/trainer.hpp"

#include <algorithm>
#include <sstream>

#include "nn/conv.hpp"
#include "obs/obs.hpp"
#include "quant/serialize.hpp"
#include "store/container.hpp"
#include "store/store.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace pdnn::core {

std::uint64_t checkpoint_key(const CompiledDataset& data) {
  // Everything the weights are trained on, folded in a fixed order; the
  // leading tag versions the payload layout. Tensors are shape-prefixed and
  // lists length-prefixed, so no two datasets share a byte stream.
  util::Fnv1a64 h;
  h.add_string("pdnn.train_checkpoint.v1");
  const auto add_tensor = [&h](const nn::Tensor& t) {
    h.add(static_cast<std::uint64_t>(t.shape().size()));
    for (int d : t.shape()) h.add(d);
    h.add_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  };
  const auto add_indices = [&h](const std::vector<int>& indices) {
    h.add(static_cast<std::uint64_t>(indices.size()));
    h.add_bytes(indices.data(), indices.size() * sizeof(int));
  };
  add_tensor(data.distance);
  h.add(static_cast<std::uint64_t>(data.samples.size()));
  for (const CompiledSample& s : data.samples) {
    add_tensor(s.currents);
    add_tensor(s.target);
  }
  add_indices(data.split.train);
  add_indices(data.split.val);
  return h.digest();
}

std::string encode_train_checkpoint(WorstCaseNoiseNet& model,
                                    nn::Adam& optimizer,
                                    const TrainCheckpoint& state) {
  std::ostringstream body;
  store::write_field(body, static_cast<std::int32_t>(state.next_epoch));
  store::write_field(body, state.lr);
  store::write_field(body, state.rng.state);
  store::write_field(
      body, static_cast<std::uint8_t>(state.rng.have_cached_normal ? 1 : 0));
  store::write_field(body, state.rng.cached_normal);
  store::write_field(body, static_cast<std::uint32_t>(state.order.size()));
  for (int idx : state.order) {
    store::write_field(body, static_cast<std::int32_t>(idx));
  }
  PDN_CHECK(state.train_loss.size() == state.val_loss.size(),
            "encode_train_checkpoint: loss history length mismatch");
  store::write_field(body,
                     static_cast<std::uint32_t>(state.train_loss.size()));
  for (std::size_t i = 0; i < state.train_loss.size(); ++i) {
    store::write_field(body, state.train_loss[i]);
    store::write_field(body, state.val_loss[i]);
  }
  quant::write_weights(model.parameters(), quant::ParamDtype::kF32, body,
                       "training checkpoint");
  store::write_field(body,
                     static_cast<std::int32_t>(optimizer.steps_taken()));
  const std::vector<nn::Tensor*> moments = optimizer.state_tensors();
  store::write_field(body, static_cast<std::uint32_t>(moments.size()));
  for (const nn::Tensor* t : moments) {
    store::write_field(body, static_cast<std::uint64_t>(t->numel()));
    body.write(reinterpret_cast<const char*>(t->data()),
               static_cast<std::streamsize>(t->numel() * sizeof(float)));
  }
  return std::move(body).str();
}

bool decode_train_checkpoint(const std::string& payload, std::uint64_t key,
                             const std::vector<int>& train_split,
                             WorstCaseNoiseNet& model, nn::Adam& optimizer,
                             TrainCheckpoint* state) {
  PDN_CHECK(state != nullptr, "decode_train_checkpoint: null output");
  const std::string where = "checkpoint chunk " + store::Store::key_hex(key);
  try {
    std::istringstream in(payload);
    TrainCheckpoint ck;
    ck.next_epoch = store::read_field<std::int32_t>(in, where, "next_epoch");
    ck.lr = store::read_field<float>(in, where, "lr");
    ck.rng.state = store::read_field<std::uint64_t>(in, where, "rng_state");
    ck.rng.have_cached_normal =
        store::read_field<std::uint8_t>(in, where, "rng_cached_flag") != 0;
    ck.rng.cached_normal =
        store::read_field<double>(in, where, "rng_cached_normal");
    // The counts are not reserved up front: the checksum does not bound
    // them, and a count the payload cannot hold must end in a truncated read.
    const auto order_n =
        store::read_field<std::uint32_t>(in, where, "order_count");
    for (std::uint32_t i = 0; i < order_n; ++i) {
      ck.order.push_back(store::read_field<std::int32_t>(in, where, "order"));
    }
    // The order indexes the dataset, so it must hold exactly the current
    // training split's samples. The key already covers the split; this
    // check keeps a payload decoded against another split from indexing
    // past the dataset.
    std::vector<int> restored = ck.order;
    std::vector<int> expected = train_split;
    std::sort(restored.begin(), restored.end());
    std::sort(expected.begin(), expected.end());
    PDN_CHECK(restored == expected,
              "training order in " + where +
                  " is not a permutation of the current training split "
                  "(field 'order')");
    const auto loss_n =
        store::read_field<std::uint32_t>(in, where, "loss_count");
    for (std::uint32_t i = 0; i < loss_n; ++i) {
      ck.train_loss.push_back(
          store::read_field<double>(in, where, "train_loss"));
      ck.val_loss.push_back(store::read_field<double>(in, where, "val_loss"));
    }
    // Weights and moments decode into scratch tensors and are committed only
    // once every field has verified, so a rejected checkpoint leaves the
    // model and the optimizer untouched. The weight reader's name/shape
    // checks reject a checkpoint from a different architecture.
    const std::vector<nn::Parameter*> params = model.parameters();
    std::vector<nn::Tensor> weights =
        quant::read_weights(params, quant::ParamDtype::kF32, in, where);
    const auto steps = store::read_field<std::int32_t>(in, where, "adam_t");
    PDN_CHECK(steps >= 0,
              "negative step count in " + where + " (field 'adam_t')");
    const auto moment_n =
        store::read_field<std::uint32_t>(in, where, "moment_count");
    const std::vector<nn::Tensor*> moments = optimizer.state_tensors();
    PDN_CHECK(moment_n == moments.size(),
              "moment tensor count mismatch in " + where +
                  " (field 'moment_count')");
    std::vector<nn::Tensor> moment_values;
    moment_values.reserve(moments.size());
    for (const nn::Tensor* t : moments) {
      const auto numel =
          store::read_field<std::uint64_t>(in, where, "moment_numel");
      PDN_CHECK(numel == static_cast<std::uint64_t>(t->numel()),
                "moment tensor size mismatch in " + where +
                    " (field 'moment_numel')");
      nn::Tensor m(t->shape());
      in.read(reinterpret_cast<char*>(m.data()),
              static_cast<std::streamsize>(m.numel() * sizeof(float)));
      PDN_CHECK(in.good(),
                "truncated file " + where + " reading field 'moment_data'");
      moment_values.push_back(std::move(m));
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->var.mutable_value() = std::move(weights[i]);
    }
    for (std::size_t i = 0; i < moments.size(); ++i) {
      *moments[i] = std::move(moment_values[i]);
    }
    optimizer.set_steps_taken(steps);
    *state = std::move(ck);
    return true;
  } catch (const util::CheckError& e) {
    obs::logf("checkpoint: ignoring %s: %s", where.c_str(), e.what());
    return false;
  }
}

double evaluate_loss(WorstCaseNoiseNet& model, const CompiledDataset& data,
                     const std::vector<int>& indices) {
  if (indices.empty()) return 0.0;
  nn::NoGradGuard no_grad;
  const nn::Var distance(data.distance);
  double total = 0.0;
  for (int idx : indices) {
    const CompiledSample& s = data.samples[static_cast<std::size_t>(idx)];
    const nn::Var pred = model.forward(distance, nn::Var(s.currents));
    total += nn::l1_loss(pred, s.target, nn::Reduction::kSum).value().item();
  }
  return total / static_cast<double>(indices.size());
}

TrainReport train_model(WorstCaseNoiseNet& model, const CompiledDataset& data,
                        const TrainOptions& options) {
  PDN_CHECK(!data.split.train.empty(), "train_model: empty training set");
  PDN_CHECK(options.epochs > 0, "train_model: epochs must be positive");

  obs::StageTimer timer;
  nn::Adam optimizer(model.parameters(), options.lr);
  util::Rng rng(options.shuffle_seed);
  std::vector<int> order = data.split.train;

  TrainReport report;
  int start_epoch = 0;
  store::Store* const checkpoints = options.checkpoint_store;
  PDN_CHECK(checkpoints != nullptr || !options.resume,
            "train_model: resume needs a checkpoint store");
  const std::uint64_t key = checkpoints != nullptr ? checkpoint_key(data) : 0;
  const bool checkpointing =
      checkpoints != nullptr && options.checkpoint_every > 0;
  if (options.resume) {
    TrainCheckpoint ck;
    std::string payload;
    if (checkpoints->get(key, &payload) &&
        decode_train_checkpoint(payload, key, data.split.train, model,
                                optimizer, &ck)) {
      // `order` is shuffled in place each epoch, so the restored vector —
      // not a fresh copy of the split — carries the cumulative permutation
      // the uninterrupted run would have at this epoch.
      start_epoch = ck.next_epoch;
      optimizer.set_learning_rate(ck.lr);
      rng.set_state(ck.rng);
      order = std::move(ck.order);
      report.train_loss = std::move(ck.train_loss);
      report.val_loss = std::move(ck.val_loss);
      if (options.verbose) {
        obs::logf("  resuming from checkpoint chunk %s at epoch %d",
                  store::Store::key_hex(key).c_str(), start_epoch + 1);
      }
    }
  }
  const nn::Var distance(data.distance);
  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train.epoch", "epoch", epoch + 1);
    obs::counter_add(obs::Counter::kTrainEpochs, 1);
    obs::counter_add(obs::Counter::kTrainSamples,
                     static_cast<std::int64_t>(order.size()));
    if (options.lr_decay != 1.0f && epoch > 0) {
      optimizer.set_learning_rate(optimizer.learning_rate() * options.lr_decay);
    }
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (int idx : order) {
      const CompiledSample& s = data.samples[static_cast<std::size_t>(idx)];
      optimizer.zero_grad();
      const nn::Var pred = model.forward(distance, nn::Var(s.currents));
      nn::Var loss = nn::l1_loss(pred, s.target, nn::Reduction::kSum);
      epoch_loss += loss.value().item();
      loss.backward();
      optimizer.step();
    }
    report.train_loss.push_back(epoch_loss /
                                static_cast<double>(order.size()));
    report.val_loss.push_back(evaluate_loss(model, data, data.split.val));
    if (options.verbose) {
      obs::logf("  epoch %2d/%d  train %.4f  val %.4f", epoch + 1,
                options.epochs, report.train_loss.back(),
                report.val_loss.back());
    }
    // The final epoch always checkpoints so a longer --resume run can pick
    // up exactly where this one stopped.
    if (checkpointing && ((epoch + 1) % options.checkpoint_every == 0 ||
                          epoch + 1 == options.epochs)) {
      TrainCheckpoint ck;
      ck.next_epoch = epoch + 1;
      ck.lr = optimizer.learning_rate();
      ck.rng = rng.state();
      ck.order = order;
      ck.train_loss = report.train_loss;
      ck.val_loss = report.val_loss;
      checkpoints->put(key, encode_train_checkpoint(model, optimizer, ck));
    }
  }
  report.seconds = timer.lap("train");
  // Training is the peak-scratch workload; drop every worker's im2col
  // buffers now so they don't pin peak-sized allocations for the process
  // lifetime. Inference reallocates (smaller) scratch lazily.
  nn::release_conv_scratch();
  return report;
}

}  // namespace pdnn::core
