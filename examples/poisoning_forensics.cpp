// Post-hoc forensics for a poisoned model — the paper's Experiment IV
// workflow as a downstream user would run it.
//
//   1. A face model is collaboratively trained; one participant
//      ("mallory") slipped trigger-stamped, relabeled faces in.
//   2. A model user notices a misprediction at runtime (a colleague's
//      face classifies as someone else).
//   3. The user queries the linkage database with the misprediction's
//      fingerprint, receives the closest training instances and their
//      contributors, and demands the originals.
//   4. Turned-in data is verified against the recorded hash digest H,
//      exposing the poisoned records and their source.
//
// Build & run:  ./build/examples/poisoning_forensics
#include <cstdio>

#include "attack/trojan.hpp"
#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_faces.hpp"
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
  data::SyntheticFacesOptions face_options;
  face_options.identities = 8;
  data::SyntheticFaces faces(face_options);
  Rng rng(99);
  const int target = 0;

  // --- honest corpus + the attack ---------------------------------------
  core::Participant honest("honest-lab", faces.Generate(320, rng), 1);

  data::LabeledDataset donors;
  for (int id = 1; id < face_options.identities - 1; ++id) {
    donors.Merge(faces.GenerateForIdentity(id, 10, rng));
  }
  core::Participant mallory(
      "mallory", attack::MakePoisonedSet(donors, target, "mallory"), 2);

  // --- collaborative training (clean, then mallory joins) ---------------
  core::TrainingServer server;
  honest.Provision(server, server.training_measurement());
  (void)Upload(server, honest);
  core::PartitionedTrainOptions options;
  options.epochs = 8;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 3;
  const auto spec = nn::FaceNetSpec(faces.shape(), face_options.identities,
                                    /*embedding_dim=*/64, /*scale=*/8);
  (void)server.Train(spec, options);

  mallory.Provision(server, server.training_measurement());
  (void)Upload(server, mallory);
  core::PartitionedTrainOptions retrain = options;
  retrain.resume = true;
  retrain.epochs = 4;
  retrain.sgd.learning_rate = 0.005F;
  (void)server.Train(spec, retrain);
  std::printf("model trained over %zu records (honest + mallory)\n",
              server.accepted_records());

  // Fingerprint at the wide embedding FC (see DESIGN.md).
  int embedding_fc = -1;
  for (int i = 0; i < server.model().NumLayers(); ++i) {
    if (server.model().layer(i).kind() == nn::LayerKind::kConnected) {
      embedding_fc = i;
      break;
    }
  }
  linkage::LinkageDatabase db = server.FingerprintAll(embedding_fc);
  core::QueryService query(std::move(server.model()), std::move(db),
                           embedding_fc);

  // --- 2: the runtime misprediction --------------------------------------
  const nn::Image victim =
      attack::ApplyTrigger(faces.Sample(/*identity=*/3, rng));
  nn::LayerWorkspace ws;
  const core::MispredictionReport report =
      query.InvestigateWith(ws, victim, 9);
  std::printf("\nruntime: a face of identity 3 was classified as identity "
              "%d!\n", report.predicted_label);

  // --- 3: provenance query ------------------------------------------------
  std::printf("closest training fingerprints in class %d:\n",
              report.predicted_label);
  std::size_t mallory_hits = 0;
  for (std::size_t r = 0; r < report.neighbors.size(); ++r) {
    const auto& n = report.neighbors[r];
    std::printf("  #%zu  L2 %.4f  source %s\n", r + 1, n.distance,
                n.source.c_str());
    if (n.source == "mallory") ++mallory_hits;
  }
  std::printf("=> %zu of %zu nearest instances came from 'mallory'\n",
              mallory_hits, report.neighbors.size());

  // --- 4: demand + verify the originals ------------------------------------
  // Mallory must turn in the suspicious instances; hashes prove they are
  // exactly the records used in training (no substitution possible).
  const auto& suspect = report.neighbors.front();
  bool verified = false;
  for (std::size_t i = 0; i < mallory.local_data().size(); ++i) {
    const auto [image, label] = mallory.TurnInInstance(i);
    if (query.VerifyTurnedInData(suspect.id, image, label)) {
      verified = true;
      std::printf("\nmallory's turned-in instance #%zu matches linkage hash "
                  "H of tuple %llu\n", i,
                  static_cast<unsigned long long>(suspect.id));
      std::printf("the instance carries the trojan trigger: %s\n",
                  attack::HasTrigger(image) ? "YES — poisoning proven"
                                            : "no");
      break;
    }
  }
  if (!verified) std::printf("no turned-in instance matched (unexpected)\n");
  return verified ? 0 : 1;
}
