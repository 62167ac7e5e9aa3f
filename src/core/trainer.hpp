// Model training (paper §3.4.4): Adam at learning rate 1e-4 and the L1 loss
// of Eq. (3), summed over the m x n tile array, plus resumable training
// checkpoints kept as run-store chunks keyed by the data they train on
// (DESIGN.md §11).
//
// Checkpoint payload layout (little-endian, fixed field order; the PDNC
// chunk around it carries the magic, version, key, size and checksum):
//
//   i32    next_epoch
//   f32    lr
//   u64    rng_state, u8 rng_cached_flag, f64 rng_cached_normal
//   u32    order_count, i32 order[order_count]
//   u32    loss_count, then per epoch: f64 train_loss, f64 val_loss
//   one fp32 "PDNW" weight block, coded by quant/serialize
//   i32    adam_t
//   u32    moment_count, then per tensor: u64 numel, f32 data[numel]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace pdnn::store {
class Store;
}

namespace pdnn::core {

struct TrainOptions {
  int epochs = 12;
  float lr = 1e-4f;           ///< paper: Adam, 0.0001
  float lr_decay = 1.0f;      ///< per-epoch multiplicative decay (1 = constant)
  bool verbose = false;       ///< print per-epoch losses
  std::uint64_t shuffle_seed = 11;
  /// When set and checkpoint_every > 0, a checkpoint is put into this store
  /// under checkpoint_key(data) after every checkpoint_every-th epoch and
  /// after the final epoch.
  store::Store* checkpoint_store = nullptr;
  int checkpoint_every = 0;
  /// Restore the store's checkpoint for this data before training (if it
  /// exists and verifies) and continue from its epoch. A resumed run reaches
  /// bit-identical final weights to one that never stopped
  /// (tests/test_core_trainer.cpp).
  bool resume = false;
};

struct TrainReport {
  std::vector<double> train_loss;  ///< mean per-sample loss per epoch
  std::vector<double> val_loss;
  double seconds = 0.0;
};

/// Train in place; returns per-epoch losses.
TrainReport train_model(WorstCaseNoiseNet& model, const CompiledDataset& data,
                        const TrainOptions& options);

/// Everything train_model mutates between epochs besides the weights and
/// optimizer moments: where to pick up, the decayed learning rate, the
/// shuffle stream, the cumulatively-shuffled epoch order, and the loss
/// history (so a resumed TrainReport covers all epochs, not just its own).
struct TrainCheckpoint {
  int next_epoch = 0;
  float lr = 0.0f;
  util::Rng::State rng;
  std::vector<int> order;
  std::vector<double> train_loss;
  std::vector<double> val_loss;
};

/// Store key of the checkpoint for a run over `data`: an FNV-1a digest of a
/// version tag, the distance tensor, every compiled sample's currents and
/// target, and the train and val index lists. It leaves out the epoch
/// budget, the learning rate and its decay, the shuffle seed and the
/// checkpoint period, so a longer run resumes from a shorter run's final
/// checkpoint, while a run over other data cannot find it.
std::uint64_t checkpoint_key(const CompiledDataset& data);

/// Serialize model weights + Adam state + `state` as a checkpoint payload.
std::string encode_train_checkpoint(WorstCaseNoiseNet& model,
                                    nn::Adam& optimizer,
                                    const TrainCheckpoint& state);

/// Restore a checkpoint payload, read from the store under `key`, into an
/// existing model/optimizer. Returns false — logging the reason, which
/// names the chunk key, and never throwing — when the payload is truncated,
/// doesn't match the model architecture, or holds a training order that is
/// not a permutation of `train_split`; the model and optimizer are then
/// untouched, and the caller trains from scratch.
bool decode_train_checkpoint(const std::string& payload, std::uint64_t key,
                             const std::vector<int>& train_split,
                             WorstCaseNoiseNet& model, nn::Adam& optimizer,
                             TrainCheckpoint* state);

/// Mean per-sample L1 loss over an index set (no gradients).
double evaluate_loss(WorstCaseNoiseNet& model, const CompiledDataset& data,
                     const std::vector<int>& indices);

}  // namespace pdnn::core
