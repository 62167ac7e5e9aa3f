// Model training (paper §3.4.4): Adam at learning rate 1e-4 and the L1 loss
// of Eq. (3), summed over the m x n tile array, plus resumable "PDNT"
// training checkpoints (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace pdnn::core {

struct TrainOptions {
  int epochs = 12;
  float lr = 1e-4f;           ///< paper: Adam, 0.0001
  float lr_decay = 1.0f;      ///< per-epoch multiplicative decay (1 = constant)
  bool verbose = false;       ///< print per-epoch losses
  std::uint64_t shuffle_seed = 11;
  /// When non-empty and checkpoint_every > 0, a "PDNT" checkpoint is written
  /// here after every checkpoint_every-th epoch and after the final epoch.
  std::string checkpoint_path;
  int checkpoint_every = 0;
  /// Restore checkpoint_path before training (if it exists and verifies) and
  /// continue from its epoch. A resumed run reaches bit-identical final
  /// weights to one that never stopped (tests/test_core_trainer.cpp).
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

/// Atomically write model weights + Adam state + `state` as one "PDNT" file.
void save_train_checkpoint(const std::string& path, WorstCaseNoiseNet& model,
                           nn::Adam& optimizer, const TrainCheckpoint& state);

/// Restore a "PDNT" file into an existing model/optimizer. Returns false —
/// logging the named reason, never throwing — when the file is missing,
/// truncated, fails its checksum, doesn't match the model architecture, or
/// holds a training order that is not a permutation of `train_split` (it was
/// written for another split); the model and optimizer are then untouched,
/// and the caller trains from scratch.
bool load_train_checkpoint(const std::string& path,
                           const std::vector<int>& train_split,
                           WorstCaseNoiseNet& model, nn::Adam& optimizer,
                           TrainCheckpoint* state);

/// Mean per-sample L1 loss over an index set (no gradients).
double evaluate_loss(WorstCaseNoiseNet& model, const CompiledDataset& data,
                     const std::vector<int>& indices);

}  // namespace pdnn::core
