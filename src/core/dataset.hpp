// Dataset construction and the training-set expansion split (paper §3.4.4).
//
// Building a dataset is two-phase so experiments can reuse expensive golden
// simulations: simulate_dataset() runs the transient engine once per test
// vector (the costly part); compile_dataset() then applies Algorithm 1 at a
// chosen compression rate and splits train/val/test — Fig. 6 sweeps the rate
// by re-compiling the same RawDataset.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/temporal.hpp"
#include "nn/tensor.hpp"
#include "pdn/power_grid.hpp"
#include "sim/transient.hpp"
#include "util/grid2d.hpp"
#include "vectors/generator.hpp"

namespace pdnn::store {
class Store;
}

namespace pdnn::core {

/// One simulated test vector: tile current maps per time step plus the
/// golden worst-case noise map.
struct RawSample {
  std::vector<util::MapF> current_maps;  ///< [num_steps] tile maps, amperes
  util::MapF truth;                      ///< golden worst-case noise, volts
  double sim_seconds = 0.0;              ///< golden engine cost for this vector
};

/// All simulated vectors for one design.
struct RawDataset {
  std::vector<RawSample> samples;
  nn::Tensor distance;        ///< [1, B, m, n] bump-distance feature
  float current_scale = 1.0f; ///< normalization for current maps
  float vdd = 1.0f;
  double total_sim_seconds = 0.0;
};

/// Run the golden engine over `num_vectors` random vectors. Traces are drawn
/// serially from `generator`'s stream, then contiguous blocks of `sim_batch`
/// traces run through sim::TransientSimulator::simulate_batch, with the
/// blocks fanned out across the global util::ThreadPool; the resulting
/// dataset is bit-identical for any thread count *and* any batch width (both
/// are scheduling choices — see DESIGN.md §8). `sim_batch` <= 0 means 8.
/// `progress` (optional) is called as vectors complete with (done, total),
/// serialized under a mutex.
///
/// When `store` is non-null each vector is first looked up by its
/// dataset_cache_key(); verified hits replay the persisted sample —
/// including the originally measured sim_seconds, so warm totals stay
/// meaningful — and only misses are simulated (then written back). Because
/// the key deliberately excludes every scheduling knob, a warm run is
/// byte-identical to the cold run that populated the store at any thread
/// count and batch width (DESIGN.md §11).
RawDataset simulate_dataset(
    const pdn::PowerGrid& grid, const sim::TransientSimulator& simulator,
    vectors::TestVectorGenerator& generator, int num_vectors,
    const std::function<void(int, int)>& progress = {}, int sim_batch = 0,
    store::Store* store = nullptr);

/// Canonical content key for one golden-simulated vector: an FNV-1a digest
/// of the calibrated design spec, the simulator configuration, the
/// test-vector stream identity (generator params + seed), and the vector's
/// index in that stream — every input that determines the sample's bytes,
/// and nothing that doesn't. Scheduling knobs (thread count, batch width) are
/// deliberately excluded: they never change results (DESIGN.md §7/§8), so a
/// chunk written at one parallelism must hit at any other.
std::uint64_t dataset_cache_key(const pdn::DesignSpec& spec,
                                const sim::TransientOptions& sim_options,
                                const vectors::VectorGenParams& gen_params,
                                std::uint64_t generator_seed,
                                int vector_index);

/// Serialize one RawSample as a store-chunk payload (exact float bytes, so
/// a decoded sample memcmp-equals the encoded one).
std::string encode_raw_sample(const RawSample& sample);

/// Inverse of encode_raw_sample. Returns false (leaving `sample` in an
/// unspecified state) if the payload does not parse — the caller treats
/// that as a cache miss, never an error.
bool decode_raw_sample(const std::string& payload, RawSample* sample);

/// How the train set is chosen from the sample pool.
enum class SplitStrategy {
  kExpansion,  ///< paper §3.4.4: distance-threshold training-set expansion
  kRandom,     ///< ablation baseline: uniform random split
};

struct SplitOptions {
  SplitStrategy strategy = SplitStrategy::kExpansion;
  double train_fraction = 0.6;  ///< paper: "approximately 60%"
  double val_fraction_of_rest = 0.3;  ///< paper: remainder split 3:7 val:test
  std::uint64_t seed = 7;
};

struct SplitIndices {
  std::vector<int> train, val, test;
};

/// A sample ready for the network.
struct CompiledSample {
  nn::Tensor currents;  ///< [T, 1, m, n], normalized, post-Algorithm-1
  nn::Tensor target;    ///< [1, 1, m, n], truth / vdd
  int raw_index = 0;    ///< back-reference into RawDataset::samples
};

struct CompiledDataset {
  std::vector<CompiledSample> samples;
  SplitIndices split;
  nn::Tensor distance;
  float current_scale = 1.0f;
  float noise_scale = 1.0f;  ///< = vdd
};

/// Apply temporal compression + normalization + split.
CompiledDataset compile_dataset(const RawDataset& raw,
                                const TemporalCompressionOptions& temporal,
                                const SplitOptions& split);

/// The training-set expansion split alone (exposed for tests/ablation):
/// greedily admits a sample when its feature distance to every admitted
/// sample exceeds a threshold; the threshold is searched so the admitted
/// fraction lands nearest `train_fraction`.
SplitIndices expansion_split(const std::vector<std::vector<float>>& signatures,
                             const SplitOptions& options);

/// Per-sample signature used for the expansion distance: the per-tile
/// temporal max and mu+3sigma of the raw current maps, flattened.
std::vector<float> sample_signature(const RawSample& sample);

}  // namespace pdnn::core
