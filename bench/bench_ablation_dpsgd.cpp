// Ablation: the DP-SGD drop-in (paper Sec. VII proposes replacing SGD
// with DP-SGD to render Model Inversion ineffective).
//
// Sweeps the Gaussian noise level at fixed clipping and reports (a)
// model accuracy and (b) how much harder gradient-based fingerprint
// reconstruction becomes — the utility/privacy trade the paper alludes
// to, measured end to end.
#include <cstdio>
#include <vector>

#include "attack/inversion.hpp"
#include "bench_common.hpp"
#include "data/synthetic_cifar.hpp"
#include "linkage/fingerprint.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"

using namespace caltrain;

int main(int argc, char** argv) {
  bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  if (!profile.full && profile.train_size > 800) profile.train_size = 800;
  bench::PrintHeader("Ablation — DP-SGD noise sweep", profile);

  Rng rng(profile.seed);
  data::SyntheticCifar gen;
  const data::LabeledDataset train = gen.Generate(profile.train_size, rng);
  const data::LabeledDataset test = gen.Generate(profile.test_size, rng);

  const std::vector<float> noise_levels = {0.0F, 0.05F, 0.25F, 1.0F, 4.0F};
  std::printf("%-12s %-10s %-10s %-22s\n", "dp_noise", "top1", "top2",
              "inversion_progress");
  for (const float noise : noise_levels) {
    Rng net_rng(profile.seed);  // same init across the sweep
    nn::Network net = nn::BuildNetwork(
        nn::Table1Spec(std::max(1, profile.net_scale / 2)), net_rng);
    Rng dp_rng(profile.seed + 1);
    nn::TrainOptions options;
    options.epochs = profile.full ? 12 : 8;
    options.batch_size = 32;
    options.sgd.learning_rate = 0.01F;
    options.sgd.dp_clip_norm = 4.0F;
    options.sgd.dp_noise_stddev = noise;
    options.sgd.dp_rng = noise > 0.0F ? &dp_rng : nullptr;
    options.augment = false;
    options.seed = profile.seed + 2;
    const auto history = nn::TrainNetwork(net, train.images, train.labels,
                                          test.images, test.labels, options);

    // How well does the white-box reconstruction attack do against this
    // model's fingerprints?
    nn::LayerWorkspace ws;
    const linkage::Fingerprint target = linkage::ExtractFingerprintAt(
        net, train.images[0], net.PenultimateIndex(), ws);
    Rng inv_rng(profile.seed + 3);
    attack::InversionOptions inv_options;
    inv_options.iterations = 100;
    const attack::InversionResult inversion =
        attack::ReconstructFromFingerprint(net, target, inv_options, inv_rng);

    std::printf("%-12.3f %-10.3f %-10.3f %-22.3f\n", noise,
                history.back().top1, history.back().top2,
                inversion.Progress());
  }
  std::printf("\npaper claim (DP-SGD slots into the CalTrain training stage\n"
              "and trades accuracy for inversion resistance): the sweep\n"
              "above records the measured trade-off.\n");
  return 0;
}
