// Sign-off sweep: the workload the paper's introduction motivates.
//
// During power-delivery sign-off, worst-case noise validation must run over
// *tens of test vectors* per design, which is prohibitive with full transient
// simulation. This example shows the hybrid flow the framework enables:
// screen a large vector set with the trained CNN in milliseconds each, then
// send only the riskiest vectors to the golden engine for confirmation.
//
// Run:  ./signoff_sweep [--vectors 40] [--screen-top 5]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "obs/obs.hpp"
#include "sim/calibrate.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pdnn;

  util::ArgParser args("signoff_sweep",
                       "Screen a sign-off vector set with the trained model");
  args.add_flag("vectors", "40", "sign-off vectors to validate");
  args.add_flag("screen-top", "5",
                "riskiest vectors confirmed with the golden engine");
  args.add_flag("vspec", "0.135", "noise spec v_spec in volts (Eq. 1)");
  if (!args.parse(argc, argv)) return 0;
  const int num_vectors = args.get_int("vectors");
  const int screen_top = args.get_int("screen-top");
  const double vspec = args.get_double("vspec");

  // Train once (smaller budget than the benches: this is a usage example).
  pdn::DesignSpec spec;
  spec.name = "signoff";
  spec.tile_rows = 14;
  spec.tile_cols = 14;
  spec.nodes_per_tile = 2;
  spec.num_loads = 90;
  spec.load_clusters = 3;
  spec.target_mean_noise = 0.1;
  spec.seed = 5;
  vectors::VectorGenParams gen_params;
  spec = sim::calibrate_design(spec, gen_params);
  const pdn::PowerGrid grid(spec);
  sim::TransientSimulator simulator(grid, {});

  vectors::TestVectorGenerator train_gen(grid, gen_params, spec.seed);
  const core::RawDataset raw =
      core::simulate_dataset(grid, simulator, train_gen, 32);
  core::TemporalCompressionOptions temporal;
  temporal.rate = 0.15;
  const core::CompiledDataset data = core::compile_dataset(raw, temporal, {});

  core::ModelConfig cfg;
  cfg.distance_channels = static_cast<int>(grid.bumps().size());
  cfg.tile_rows = spec.tile_rows;
  cfg.tile_cols = spec.tile_cols;
  cfg.current_scale = data.current_scale;
  cfg.noise_scale = data.noise_scale;
  core::WorstCaseNoiseNet model(cfg);
  core::TrainOptions topt;
  topt.epochs = 50;
  topt.lr_decay = 0.97f;
  topt.lr = 1e-3f;
  core::train_model(model, data, topt);

  // ---- The sign-off campaign ---------------------------------------------
  core::PipelineOptions popt;
  popt.temporal = temporal;
  core::WorstCasePipeline pipeline(grid, model, popt);
  vectors::TestVectorGenerator signoff_gen(grid, gen_params, 0x516e0ffull);

  struct Screened {
    int vector_id;
    float predicted_worst;
  };
  std::vector<Screened> screened;
  std::vector<vectors::CurrentTrace> traces;

  obs::StageTimer screen_timer;
  for (int v = 0; v < num_vectors; ++v) {
    traces.push_back(signoff_gen.generate());
    const util::MapF map = pipeline.predict(traces.back());
    screened.push_back({v, map.max_value()});
  }
  const double screen_seconds = screen_timer.seconds();

  std::sort(screened.begin(), screened.end(),
            [](const Screened& a, const Screened& b) {
              return a.predicted_worst > b.predicted_worst;
            });

  std::printf("screened %d vectors in %.2fs (%.4fs each) against "
              "v_spec = %.0fmV\n\n",
              num_vectors, screen_seconds, screen_seconds / num_vectors,
              vspec * 1e3);
  std::printf("riskiest vectors (CNN estimate), confirmed by golden engine:\n");
  std::printf("%8s %18s %18s %10s\n", "vector", "predicted(mV)", "golden(mV)",
              "verdict");

  double confirm_seconds = 0.0;
  int violations = 0;
  for (int i = 0; i < std::min<int>(screen_top, num_vectors); ++i) {
    const int vec_id = screened[static_cast<std::size_t>(i)].vector_id;
    const auto result =
        simulator.simulate(traces[static_cast<std::size_t>(vec_id)]);
    confirm_seconds += result.solve_seconds;
    const float golden = result.tile_worst_noise.max_value();
    const bool violates = golden > vspec;
    violations += violates ? 1 : 0;
    std::printf("%8d %18.1f %18.1f %10s\n",
                screened[static_cast<std::size_t>(i)].vector_id,
                screened[static_cast<std::size_t>(i)].predicted_worst * 1e3,
                golden * 1e3, violates ? "VIOLATES" : "ok");
  }

  const double full_campaign_estimate =
      confirm_seconds / screen_top * num_vectors;
  std::printf("\nhybrid flow: %.2fs screening + %.2fs confirmation = %.2fs "
              "total\n", screen_seconds, confirm_seconds,
              screen_seconds + confirm_seconds);
  std::printf("full golden campaign would take ~%.1fs (%.1fx more)\n",
              full_campaign_estimate,
              full_campaign_estimate / (screen_seconds + confirm_seconds));
  std::printf("%d of the top-%d vectors violate the %.0fmV spec.\n", violations,
              screen_top, vspec * 1e3);
  return 0;
}
