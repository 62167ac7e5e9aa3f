// End-to-end inference pipeline (paper Fig. 2, inference flow): test vector
// -> spatial compression -> Algorithm 1 temporal compression -> feature
// assembly -> one CNN forward pass -> worst-case noise map for the entire
// PDN. One execution predicts the whole map; no tile-by-tile iteration.
//
// The pipeline is split into two stages so the serving layer can overlap and
// batch them:
//
//   prepare()  — spatial + temporal compression + feature assembly for one
//                trace. Pure per-request work; client threads run it
//                concurrently.
//   infer()    — one CNN forward pass over a prepared request.
//   infer_batch() — one *fused* forward pass over many prepared requests:
//                all requests' [T,1,m,n] current stacks are concatenated
//                along the batch axis through a single fusion-subnet pass,
//                and the per-request feature stacks run through a single
//                [B,4,m,n] prediction-subnet pass, amortizing im2col/GEMM.
//
// predict() composes prepare() + infer() and infer() is the B = 1 case of
// infer_batch(), so the serial and batched paths share machine code; per-
// request outputs are bit-identical at any batch width (conv lowers and
// multiplies each batch sample independently — locked in by the Serve tests).
//
// Concurrency contract (same discipline as sim::TransientSimulator): all
// methods are const, the shared state (grid, compressors, model weights, the
// cached distance reduction) is read-only after construction, and per-call
// scratch lives in the returned objects or on the stack — concurrent calls
// from many threads are safe provided nothing mutates the model weights
// concurrently (do not train and serve one model instance at the same time).
#pragma once

#include "core/model.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"
#include "util/grid2d.hpp"
#include "vectors/current_trace.hpp"

namespace pdnn::core {

struct PipelineOptions {
  TemporalCompressionOptions temporal;
};

/// Wall-time breakdown of one prediction (the paper's "Proposed (s)" column
/// counts everything from raw vector to noise map).
struct PredictionTiming {
  double spatial_seconds = 0.0;
  double temporal_seconds = 0.0;
  double inference_seconds = 0.0;
  double total_seconds = 0.0;
  int kept_steps = 0;
};

/// One trace compressed and assembled, ready for the CNN.
struct PreparedRequest {
  nn::Tensor currents;  ///< [T, 1, m, n], normalized, post-Algorithm-1
  int kept_steps = 0;
  double spatial_seconds = 0.0;
  double temporal_seconds = 0.0;
};

/// Bundles a trained model with its design's compressors and features.
class WorstCasePipeline {
 public:
  /// The grid and model are captured by reference and must outlive the
  /// pipeline; the model's weights must stay frozen while predictions run.
  WorstCasePipeline(const pdn::PowerGrid& grid,
                    const WorstCaseNoiseNet& model, PipelineOptions options);

  /// Compress one test vector into CNN inputs (stages 1–2 + assembly).
  PreparedRequest prepare(const vectors::CurrentTrace& trace) const;

  /// One CNN forward pass over a prepared request.
  util::MapF infer(const PreparedRequest& request,
                   PredictionTiming* timing = nullptr) const;

  /// One fused forward pass over `batch.size()` prepared requests; returns
  /// per-request maps in order, each bit-identical to infer() on that
  /// request alone.
  std::vector<util::MapF> infer_batch(
      const std::vector<const PreparedRequest*>& batch) const;

  /// Predict the worst-case noise map (volts) for one test vector.
  util::MapF predict(const vectors::CurrentTrace& trace,
                     PredictionTiming* timing = nullptr) const;

  const PipelineOptions& options() const { return options_; }

 private:
  const pdn::PowerGrid& grid_;
  const WorstCaseNoiseNet& model_;
  PipelineOptions options_;
  SpatialCompressor spatial_;
  /// Subnet-1 output D~ [1,1,m,n]: depends only on the design and the frozen
  /// weights, so it is reduced once here and reused by every prediction. The
  /// B x m x n distance tensor it is reduced from is not kept.
  nn::Tensor distance_reduced_;
};

}  // namespace pdnn::core
