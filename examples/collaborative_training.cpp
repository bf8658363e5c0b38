// Collaborative training with dynamic partition re-assessment and model
// release — the paper's Fig. 1 scenario with participants A-D.
//
// Demonstrates:
//   * four distrusting participants pooling encrypted data,
//   * per-epoch information-exposure re-assessment by a participant on
//     the semi-trained model (paper Sec. IV-B), moving the FrontNet
//     boundary by consensus,
//   * model release with the FrontNet encrypted per participant, and
//   * a participant reassembling and using the released model locally.
//
// Build & run:  ./build/examples/collaborative_training
#include <cstdio>
#include <optional>
#include <vector>

#include "core/participant.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "serve/service.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/mathx.hpp"

using namespace caltrain;

// Streams a provisioned participant's signed, encrypted records through
// an upload session of the serving front end (examples/async_serving.cpp
// walks through the whole asynchronous API); returns the accepted count.
std::size_t Upload(core::TrainingServer& server,
                   const core::Participant& participant) {
  serve::Service service(server, serve::ServiceConfig{});
  const auto session = service.OpenUploadSession(participant.id());
  if (!session.ok()) return 0;
  (void)service.SubmitUpload(session.value(), participant.PackRecords()).get();
  const auto stats = service.CloseUploadSession(session.value());
  return stats.ok() ? stats.value().accepted : 0;
}

int main(int argc, char** argv) {
  // --threads N selects the worker count (wins over CALTRAIN_THREADS).
  (void)caltrain::util::ApplyThreadsFlag(argc, argv);
  SetLogLevel(LogLevel::kInfo);
  Rng rng(7);
  data::SyntheticCifar gen;

  // --- participants A-D ------------------------------------------------
  std::vector<core::Participant> participants;
  const char* names[] = {"participant-A", "participant-B", "participant-C",
                         "participant-D"};
  for (int p = 0; p < 4; ++p) {
    participants.emplace_back(names[p], gen.Generate(350, rng),
                              /*seed=*/100 + p);
  }

  core::TrainingServer server;
  for (auto& participant : participants) {
    participant.Provision(server, server.training_measurement());
    (void)Upload(server, participant);
  }
  std::printf("%zu participants provisioned, %zu records accepted\n",
              participants.size(), server.accepted_records());

  // --- participant-side IRValNet oracle ---------------------------------
  // Participant A trains a private validator on its own data to assess
  // information exposure of semi-trained models.
  std::printf("participant-A trains a private IRValNet oracle...\n");
  nn::Network validator = nn::BuildNetwork(nn::Table1Spec(8), rng);
  {
    const auto& local = participants[0].local_data();
    nn::TrainOptions options;
    options.epochs = 10;
    options.sgd.learning_rate = 0.01F;
    options.augment = false;
    options.seed = 11;
    (void)nn::TrainNetwork(validator, local.images, local.labels, {}, {},
                           options);
  }

  // --- training with dynamic re-assessment ------------------------------
  const data::LabeledDataset test = gen.Generate(150, rng);
  core::PartitionedTrainOptions options;
  options.epochs = 6;
  options.front_layers = 1;  // deliberately too shallow to start
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 12;
  options.test_images = &test.images;
  options.test_labels = &test.labels;
  options.reassess = [&](const nn::Network& semi,
                         int epoch) -> std::optional<int> {
    // Participant A probes the semi-trained model with private data and
    // proposes a boundary; the consensus here is a single assessor.
    auto& mutable_semi = const_cast<nn::Network&>(semi);
    const int recommended = participants[0].AssessSemiTrainedModel(
        mutable_semi, validator, /*probe_count=*/3);
    // Consensus may relax the strict recommendation for efficiency
    // (paper Sec. IV-B: "end users can also relax the constraints
    // based on their specific requirements") — cap the enclave share.
    const int agreed = std::min(recommended, 6);
    std::printf("  epoch %d: participant-A recommends FrontNet depth %d"
                " -> consensus %d\n", epoch, recommended, agreed);
    return agreed;
  };

  const core::TrainReport report =
      server.Train(nn::Table2Spec(/*scale=*/16), options);
  std::printf("\nper-epoch FrontNet depth:");
  for (int depth : report.front_layers_per_epoch) std::printf(" %d", depth);
  std::printf("\nfinal top-1 %.1f%% | EPC faults %llu | IR out %.1f MB\n",
              100.0 * report.epochs.back().top1,
              static_cast<unsigned long long>(report.epc.page_faults),
              static_cast<double>(report.partition.ir_bytes_out) / 1e6);

  // --- model release -----------------------------------------------------
  const auto released = server.ReleaseModelFor("participant-B");
  std::printf("\nreleased model for participant-B: BackNet %zu bytes "
              "plaintext, FrontNet %zu bytes AES-GCM\n",
              released.backnet_weights.size(),
              released.frontnet_ciphertext.size());

  nn::Network local_model = core::TrainingServer::AssembleReleasedModel(
      released, participants[1].data_key());
  const nn::Image probe = gen.Sample(5, rng);
  nn::LayerWorkspace ws;
  const auto probs = local_model.PredictOne(probe, ws);
  std::printf("participant-B decrypted its FrontNet and classified a local\n"
              "sample as class %zu (p=%.2f)\n", ArgMax(probs),
              probs[ArgMax(probs)]);
  return 0;
}
