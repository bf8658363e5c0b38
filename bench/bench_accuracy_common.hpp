// Shared harness for the Fig. 3 / Fig. 4 prediction-accuracy
// experiments: train the given topology (a) in a non-protected
// environment (plain trainer, fast kernels) and (b) through the full
// CalTrain pipeline (participants encrypt + provision; partitioned
// training with the first two layers enclaved, as in the paper's
// Sec. VI-A setup), then print per-epoch Top-1/Top-2 for both.
#pragma once

#include <cstdio>

#include "bench_common.hpp"
#include "core/participant.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/trainer.hpp"

namespace caltrain::bench {

inline int RunAccuracyExperiment(const char* figure_name,
                                 const nn::NetworkSpec& spec,
                                 const BenchProfile& profile) {
  Rng rng(profile.seed);
  data::SyntheticCifar gen;
  const data::LabeledDataset train = gen.Generate(profile.train_size, rng);
  const data::LabeledDataset test = gen.Generate(profile.test_size, rng);

  // --- (a) non-protected environment --------------------------------
  std::printf("[baseline] training in non-protected environment...\n");
  nn::Network plain_net(spec);
  plain_net.InitWeights(rng);
  // Both environments start from the same weights so the comparison
  // isolates the pipeline, not the initialization lottery.
  const Bytes initial_weights =
      plain_net.SerializeWeightRange(0, plain_net.NumLayers());
  // Photometric augmentation only: the synthetic classes are coded by
  // texture geometry (orientation/frequency), so the flip/rotation
  // augmentations that suit natural images would multiply the class
  // modes and push convergence past 12 epochs.  The in-enclave
  // augmentation path is still exercised (brightness/contrast jitter
  // from the enclave DRBG).
  nn::AugmentOptions augment;
  augment.flip = false;
  augment.max_rotation_deg = 0.0F;
  augment.max_translate_px = 0;

  nn::TrainOptions options;
  options.epochs = profile.epochs;
  options.batch_size = profile.batch_size;
  options.sgd.learning_rate = 0.01F;
  options.augment = true;
  options.augment_options = augment;
  options.seed = profile.seed + 1;
  const auto plain = nn::TrainNetwork(plain_net, train.images, train.labels,
                                      test.images, test.labels, options);

  // --- (b) CalTrain --------------------------------------------------
  std::printf("[caltrain] training via the CalTrain pipeline "
              "(4 participants, FrontNet = first 2 layers)...\n");
  core::ServerConfig server_config;
  server_config.seed = profile.seed + 2;
  core::TrainingServer server(server_config);

  const auto shards = data::SplitAmong(train, 4);
  const char* names[] = {"participant-A", "participant-B", "participant-C",
                         "participant-D"};
  for (std::size_t p = 0; p < shards.size(); ++p) {
    core::Participant participant(names[p], shards[p],
                                  profile.seed + 10 + p);
    participant.Provision(server, server.training_measurement());
    const auto records = participant.PackRecords();
    (void)server.CommitRecords(records,
                               server.AuthenticateRecords(records, 1));
  }

  core::PartitionedTrainOptions server_options;
  server_options.epochs = profile.epochs;
  server_options.batch_size = profile.batch_size;
  server_options.front_layers = 2;  // paper: "first two layers in an enclave"
  server_options.sgd.learning_rate = 0.01F;
  server_options.augment = true;
  server_options.augment_options = augment;
  server_options.seed = profile.seed + 1;
  server_options.initial_weights = initial_weights;
  server_options.test_images = &test.images;
  server_options.test_labels = &test.labels;
  const core::TrainReport report = server.Train(spec, server_options);

  // --- the figure -----------------------------------------------------
  std::printf("\n%s series (accuracy %%):\n", figure_name);
  std::printf("%-6s %-12s %-12s %-14s %-14s\n", "epoch", "plain_top1",
              "plain_top2", "caltrain_top1", "caltrain_top2");
  for (int e = 0; e < profile.epochs; ++e) {
    std::printf("%-6d %-12.2f %-12.2f %-14.2f %-14.2f\n", e + 1,
                100.0 * plain[static_cast<std::size_t>(e)].top1,
                100.0 * plain[static_cast<std::size_t>(e)].top2,
                100.0 * report.epochs[static_cast<std::size_t>(e)].top1,
                100.0 * report.epochs[static_cast<std::size_t>(e)].top2);
  }
  // Converged accuracy: best of the last four epochs (the curves
  // fluctuate epoch to epoch, as the paper notes for its Fig. 3).
  const auto converged = [&](const std::vector<nn::EpochStats>& h) {
    double best = 0.0;
    for (std::size_t e = h.size() >= 4 ? h.size() - 4 : 0; e < h.size(); ++e) {
      best = std::max(best, h[e].top1);
    }
    return best;
  };
  const double plain_final = converged(plain);
  const double caltrain_final = converged(report.epochs);
  const double final_gap = std::abs(plain_final - caltrain_final);
  std::printf("\nconverged top-1: plain %.2f%%, caltrain %.2f%% "
              "(gap %.2f pts)\n",
              100.0 * plain_final, 100.0 * caltrain_final, 100.0 * final_gap);
  std::printf("paper shape: both environments converge to the SAME accuracy\n"
              "at the same epoch count; reproduced %s.\n",
              final_gap <= 0.06 ? "YES" : "NO (gap > 6 points)");
  std::printf("enclave accounting: %llu ecalls, %llu ocalls, %llu EPC "
              "faults, %.1f MB IR traffic out, %.1f MB delta traffic in\n",
              static_cast<unsigned long long>(report.transitions.ecalls),
              static_cast<unsigned long long>(report.transitions.ocalls),
              static_cast<unsigned long long>(report.epc.page_faults),
              static_cast<double>(report.partition.ir_bytes_out) / 1e6,
              static_cast<double>(report.partition.delta_bytes_in) / 1e6);
  return final_gap <= 0.06 ? 0 : 1;
}

}  // namespace caltrain::bench
