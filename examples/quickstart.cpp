// Quickstart: the CalTrain pipeline end to end in ~80 lines.
//
//   1. Two participants attest the training enclave and provision keys.
//   2. They upload AES-GCM-encrypted training data.
//   3. The server trains a joint model with the FrontNet enclaved.
//   4. The fingerprinting enclave builds the linkage database.
//   5. A model user investigates a prediction and sees which training
//      instances (and whose) are closest to it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "serve/service.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"

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
  Rng rng(2026);
  data::SyntheticCifar gen;

  // --- participants with private local data --------------------------
  core::Participant alice("alice", gen.Generate(300, rng), /*seed=*/1);
  core::Participant bob("bob", gen.Generate(300, rng), /*seed=*/2);

  // --- 1+2: attest, provision keys, upload encrypted data ------------
  core::TrainingServer server;
  // Each participant checks the enclave measurement they reviewed.
  const crypto::Sha256Digest measurement = server.training_measurement();
  std::printf("enclave measurement: %s...\n",
              ToHex(BytesView(measurement.data(), 8)).c_str());
  for (core::Participant* participant : {&alice, &bob}) {
    participant->Provision(server, measurement);
    (void)Upload(server, *participant);
  }
  std::printf("server accepted %zu encrypted records\n",
              server.accepted_records());

  // --- 3: partitioned training ---------------------------------------
  const data::LabeledDataset test = gen.Generate(100, rng);
  core::PartitionedTrainOptions options;
  options.epochs = 8;
  options.front_layers = 2;  // first two layers inside the enclave
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.test_images = &test.images;
  options.test_labels = &test.labels;
  const core::TrainReport report =
      server.Train(nn::Table1Spec(/*scale=*/8), options);
  std::printf("trained %d epochs; final top-1 %.1f%%; %llu enclave calls\n",
              options.epochs, 100.0 * report.epochs.back().top1,
              static_cast<unsigned long long>(report.transitions.ecalls));

  // --- 4: fingerprinting stage ----------------------------------------
  linkage::LinkageDatabase db = server.FingerprintAll();
  std::printf("linkage database holds %zu Omega tuples [F, Y, S, H]\n",
              db.size());

  // --- 5: query a prediction ------------------------------------------
  core::QueryService query(std::move(server.model()), std::move(db));
  const nn::Image probe = gen.Sample(3, rng);
  nn::LayerWorkspace ws;
  const core::MispredictionReport investigation =
      query.InvestigateWith(ws, probe, /*k=*/5);
  std::printf("\nprobe predicted as class %d; closest training data:\n",
              investigation.predicted_label);
  for (std::size_t r = 0; r < investigation.neighbors.size(); ++r) {
    const auto& n = investigation.neighbors[r];
    std::printf("  #%zu  L2 %.4f  contributed by %s\n", r + 1, n.distance,
                n.source.c_str());
  }
  std::printf("\ndone — see examples/collaborative_training.cpp and\n"
              "examples/poisoning_forensics.cpp for the full workflows.\n");
  return 0;
}
